package repo

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"concord/internal/catalog"
	"concord/internal/version"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Register(&catalog.DOT{
		Name: "floorplan",
		Attrs: []catalog.AttrDef{
			{Name: "cell", Kind: catalog.KindString, Required: true},
			{Name: "area", Kind: catalog.KindFloat, Bounded: true, Min: 0, Max: 1e12},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func openRepo(t *testing.T, dir string) *Repository {
	t.Helper()
	r, err := Open(testCatalog(t), Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func mkDOV(id, da string, area float64, parents ...version.ID) *version.DOV {
	obj := catalog.NewObject("floorplan").
		Set("cell", catalog.Str("O")).
		Set("area", catalog.Float(area))
	return &version.DOV{
		ID: version.ID(id), DOT: "floorplan", DA: da,
		Parents: parents, Object: obj, Status: version.StatusWorking,
	}
}

func TestCheckinAndGet(t *testing.T) {
	r := openRepo(t, t.TempDir())
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da1", 100), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v2", "da1", 90, "v1"), false); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("v2")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := r.Object("v2")
	if err != nil {
		t.Fatal(err)
	}
	if got.Parents[0] != "v1" || got.Object != nil || catalog.NumAttr(obj, "area") != 90 {
		t.Fatalf("got %+v", got)
	}
	// Get returns the shared immutable record (MVCC, no clone): repeated
	// reads observe the identical version, and a status update republishes
	// rather than mutating the record a reader may still hold.
	again, _ := r.Get("v2")
	if again != got {
		t.Fatal("Get should return the published immutable record")
	}
	if err := r.SetStatus("v2", version.StatusFinal); err != nil {
		t.Fatal(err)
	}
	if got.Status != version.StatusWorking {
		t.Fatal("SetStatus mutated a published record in place")
	}
	fresh, _ := r.Get("v2")
	if fresh.Status != version.StatusFinal {
		t.Fatal("SetStatus update not visible to new readers")
	}
	if r.DOVCount() != 2 {
		t.Fatalf("DOVCount = %d", r.DOVCount())
	}
}

func TestCheckinValidation(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	// Missing required attribute.
	bad := mkDOV("v1", "da1", 10)
	delete(bad.Object.Attrs, "cell")
	if err := r.Checkin(bad, true); !errors.Is(err, ErrValidation) {
		t.Fatalf("missing attr = %v, want ErrValidation", err)
	}
	// Out-of-bounds attribute.
	if err := r.Checkin(mkDOV("v2", "da1", -5), true); !errors.Is(err, ErrValidation) {
		t.Fatalf("bad area = %v, want ErrValidation", err)
	}
	// Declared DOT mismatch.
	mis := mkDOV("v3", "da1", 10)
	mis.DOT = "netlist"
	if err := r.Checkin(mis, true); !errors.Is(err, ErrValidation) {
		t.Fatalf("DOT mismatch = %v, want ErrValidation", err)
	}
	// Unknown graph.
	if err := r.Checkin(mkDOV("v4", "ghost", 10), true); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph = %v, want ErrUnknownGraph", err)
	}
	// Unknown parent.
	if err := r.Checkin(mkDOV("v5", "da1", 10, "ghost"), false); !errors.Is(err, version.ErrUnknownDOV) {
		t.Fatalf("unknown parent = %v", err)
	}
	if r.DOVCount() != 0 {
		t.Fatalf("rejected checkins stored: count = %d", r.DOVCount())
	}
}

func TestDuplicateCheckin(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da1", 10), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da1", 20), true); !errors.Is(err, version.ErrDuplicateDOV) {
		t.Fatalf("duplicate = %v", err)
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da1", 100), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v2", "da1", 80, "v1"), false); err != nil {
		t.Fatal(err)
	}
	if err := r.SetStatus("v2", version.StatusFinal); err != nil {
		t.Fatal(err)
	}
	if err := r.PutMeta("cm/da1", []byte("active")); err != nil {
		t.Fatal(err)
	}
	if err := r.PutMeta("cm/da2", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteMeta("cm/da2"); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2 := openRepo(t, dir) // simulated server restart
	if err := r2.CheckConsistency(); err != nil {
		t.Fatalf("consistency after recovery: %v", err)
	}
	v2, err := r2.Get("v2")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Status != version.StatusFinal {
		t.Fatalf("status after recovery = %s", v2.Status)
	}
	obj, err := r2.Object("v2")
	if err != nil {
		t.Fatal(err)
	}
	if catalog.NumAttr(obj, "area") != 80 {
		t.Fatalf("payload after recovery = %g", catalog.NumAttr(obj, "area"))
	}
	g, err := r2.Graph("da1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("graph len after recovery = %d", g.Len())
	}
	ok, err := g.IsAncestor("v1", "v2")
	if err != nil || !ok {
		t.Fatalf("derivation edge lost: %t, %v", ok, err)
	}
	if v, err := r2.GetMeta("cm/da1"); err != nil || string(v) != "active" {
		t.Fatalf("meta after recovery = %q, %v", v, err)
	}
	if _, err := r2.GetMeta("cm/da2"); !errors.Is(err, ErrUnknownMeta) {
		t.Fatalf("deleted meta resurrected: %v", err)
	}
	// New checkins must get fresh sequence numbers after recovery.
	if err := r2.CreateGraph("da2"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Checkin(mkDOV("v3", "da2", 10), true); err != nil {
		t.Fatal(err)
	}
	v3, _ := r2.Get("v3")
	if v3.Seq <= v2.Seq {
		t.Fatalf("seq not monotonic after recovery: %d <= %d", v3.Seq, v2.Seq)
	}
}

func TestVolatileModeWorksWithoutDir(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da1", 10), true); err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Exists("v1"); err != nil || !ok {
		t.Fatalf("volatile checkin lost (ok=%t err=%v)", ok, err)
	}
}

func TestMetaOperations(t *testing.T) {
	r := openRepo(t, "")
	if err := r.PutMeta("dm/ws1/script", []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if err := r.PutMeta("dm/ws1/log", []byte("l1")); err != nil {
		t.Fatal(err)
	}
	if err := r.PutMeta("cm/hierarchy", []byte("h")); err != nil {
		t.Fatal(err)
	}
	keys := r.ListMeta("dm/ws1/")
	if len(keys) != 2 || keys[0] != "dm/ws1/log" {
		t.Fatalf("ListMeta = %v", keys)
	}
	if err := r.PutMeta("bad\x00key", nil); err == nil {
		t.Fatal("NUL key accepted")
	}
	if err := r.DeleteMeta("never-existed"); err != nil {
		t.Fatalf("idempotent delete: %v", err)
	}
	// Stored values are copied.
	val := []byte("mutate-me")
	if err := r.PutMeta("k", val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X'
	got, _ := r.GetMeta("k")
	if string(got) != "mutate-me" {
		t.Fatal("PutMeta aliased caller slice")
	}
}

func TestNextIDUnique(t *testing.T) {
	r := openRepo(t, "")
	seen := make(map[version.ID]bool)
	for i := 0; i < 100; i++ {
		id := r.NextID()
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestCreateGraphIdempotent(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	names := r.GraphNames()
	if len(names) != 1 {
		t.Fatalf("GraphNames = %v", names)
	}
	if _, err := r.Graph("ghost"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("Graph(ghost) = %v", err)
	}
}

// Property: any chain of checkins recovers identically after restart.
func TestQuickRecoveryEquivalence(t *testing.T) {
	prop := func(areas []uint16) bool {
		if len(areas) == 0 || len(areas) > 24 {
			return true
		}
		dir, err := tempDir()
		if err != nil {
			return false
		}
		defer cleanDir(dir)
		cat := catalog.New()
		if err := cat.Register(&catalog.DOT{
			Name:  "floorplan",
			Attrs: []catalog.AttrDef{{Name: "cell", Kind: catalog.KindString, Required: true}, {Name: "area", Kind: catalog.KindFloat}},
		}); err != nil {
			return false
		}
		r, err := Open(cat, Options{Dir: dir})
		if err != nil {
			return false
		}
		if err := r.CreateGraph("da"); err != nil {
			return false
		}
		var prev version.ID
		for i, a := range areas {
			id := version.ID(fmt.Sprintf("v%d", i))
			obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("c")).Set("area", catalog.Float(float64(a)))
			v := &version.DOV{ID: id, DOT: "floorplan", DA: "da", Object: obj, Status: version.StatusWorking}
			root := i == 0
			if !root {
				v.Parents = []version.ID{prev}
			}
			if err := r.Checkin(v, root); err != nil {
				return false
			}
			prev = id
		}
		r.Close()
		r2, err := Open(cat, Options{Dir: dir})
		if err != nil {
			return false
		}
		defer r2.Close()
		if r2.DOVCount() != len(areas) {
			return false
		}
		for i, a := range areas {
			obj, err := r2.Object(version.ID(fmt.Sprintf("v%d", i)))
			if err != nil || catalog.NumAttr(obj, "area") != float64(a) {
				return false
			}
		}
		return r2.CheckConsistency() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
