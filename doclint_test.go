package concord_test

// Doc-comment lint (the CI "exported-comment" gate, dependency-free): every
// package must carry a package comment, every exported top-level identifier
// a doc comment, and the level-implementing packages must say which CONCORD
// layer (DOM / DFM / cooperation) they belong to — so the godoc coverage
// added in PR 3 cannot silently regress.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintDirs lists the package directories under the repository root.
func lintDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"."}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// parsePackage parses the non-test files of one directory (nil when it holds
// no Go package).
func parsePackage(t *testing.T, dir string) *ast.Package {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		if pkg.Name != "main" || dir == "." {
			return pkg
		}
		return pkg
	}
	return nil
}

func TestEveryPackageHasDocComment(t *testing.T) {
	for _, dir := range lintDirs(t) {
		pkg := parsePackage(t, dir)
		if pkg == nil {
			continue
		}
		documented := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package %s (%s) has no package doc comment", pkg.Name, dir)
		}
	}
}

// TestLayerStatedInLevelPackages pins the CONCORD-layer sentence in the
// packages that implement the model levels.
func TestLayerStatedInLevelPackages(t *testing.T) {
	want := map[string][]string{
		"internal/coop":    {"cooperation"},
		"internal/server":  {"DOM", "cooperation"},
		"internal/txn":     {"DOM"},
		"internal/version": {"DOM"},
		"internal/script":  {"DFM"},
		"internal/vlsi":    {"DOM"},
		"internal/catalog": {"DOM"},
	}
	for dir, terms := range want {
		pkg := parsePackage(t, dir)
		if pkg == nil {
			t.Fatalf("no package in %s", dir)
		}
		var doc string
		for _, f := range pkg.Files {
			if f.Doc != nil {
				doc += f.Doc.Text()
			}
		}
		for _, term := range terms {
			if !strings.Contains(doc, term) {
				t.Errorf("%s: package doc does not state its CONCORD layer (missing %q)", dir, term)
			}
		}
	}
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range lintDirs(t) {
		pkg := parsePackage(t, dir)
		if pkg == nil || pkg.Name == "main" {
			continue // commands document themselves via the package comment
		}
		for name, f := range pkg.Files {
			for _, decl := range f.Decls {
				checkDecl(t, name, decl)
			}
		}
	}
}

func checkDecl(t *testing.T, file string, decl ast.Decl) {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d) {
			return
		}
		if d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment", file, funcKind(d), d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil {
					t.Errorf("%s: exported type %s has no doc comment", file, sp.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range sp.Names {
					// A group comment, a per-spec comment or a trailing
					// line comment all satisfy the rule (grouped consts).
					if n.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						t.Errorf("%s: exported %s %s has no doc comment", file, d.Tok, n.Name)
					}
				}
			}
		}
	}
}

// exportedRecv reports whether a method's receiver type is exported (plain
// functions count as exported receivers).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// TestSingleServerAssembly is the architecture lint behind DESIGN.md §5.5:
// outside internal/server (and the frozen bench/ ladder) no non-test code
// builds a server-TM or puts one behind a 2PC participant, so there is exactly
// one server assembly. rpc.NewParticipant stays legal for synthetic resources
// (E9–E11): its argument must be a composite literal of a type local to the
// calling package, which a *txn.ServerTM can never be.
func TestSingleServerAssembly(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == filepath.Join("internal", "server") || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkgOf := map[string]string{} // local import name → import path
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgOf[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			switch pkgOf[pkg.Name] + "." + sel.Sel.Name {
			case "concord/internal/txn.NewServerTM":
				t.Errorf("%s: txn.NewServerTM outside internal/server — build the site with server.Assemble", fset.Position(call.Pos()))
			case "concord/internal/rpc.NewParticipant":
				if len(call.Args) == 0 || !localLiteral(call.Args[0]) {
					t.Errorf("%s: rpc.NewParticipant over a non-synthetic resource outside internal/server — build the site with server.Assemble", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// localLiteral reports whether e is a composite literal (or its address) of an
// unqualified type, directly or through the identifier it was assigned to.
func localLiteral(e ast.Expr) bool {
	if id, ok := e.(*ast.Ident); ok && id.Obj != nil {
		as, ok := id.Obj.Decl.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for i, lhs := range as.Lhs {
			if l, ok := lhs.(*ast.Ident); ok && l.Name == id.Name && i < len(as.Rhs) {
				e = as.Rhs[i]
			}
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	_, local := lit.Type.(*ast.Ident)
	return local
}

// gobImporters are the files allowed to import encoding/gob until the last
// gob-encoded record moves to binenc (ROADMAP 4b).
var gobImporters = map[string]bool{
	"internal/coop/cm.go":       true,
	"internal/script/ast.go":    true,
	"internal/script/engine.go": true,
}

// TestTxnDoesNotImportGob keeps the module on one codec: wire messages and
// client recovery records are binenc (DESIGN.md §3.4, §4.4), and a reflective
// codec must not come back through a new record type — in internal/txn or in
// any file beyond today's gobImporters.
func TestTxnDoesNotImportGob(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // bench/ is its own module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` && !gobImporters[filepath.ToSlash(path)] {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
