package repo

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"concord/internal/version"
)

// lineageStep is one version of the lineage test graph.
type lineageStep struct {
	id, da  string
	root    bool
	parents []version.ID
}

// lineageGraph spans two DAs: lineages a and b, two branches of a merged
// back, a merge of a and b, a derivation across DAs, a root adopted from a
// held parent with a child of its own, a root adopted from a parent outside
// the repository, and an unrelated root.
var lineageGraph = []lineageStep{
	{id: "a", da: "da", root: true},
	{id: "a1", da: "da", parents: []version.ID{"a"}},
	{id: "a2", da: "da", parents: []version.ID{"a1"}},
	{id: "a1b", da: "da", parents: []version.ID{"a1"}},
	{id: "b", da: "da", root: true},
	{id: "b1", da: "da", parents: []version.ID{"b"}},
	{id: "aa", da: "da", parents: []version.ID{"a2", "a1b"}},
	{id: "m", da: "da", parents: []version.ID{"a2", "b1"}},
	{id: "c", da: "da", root: true},
	{id: "u", da: "db", parents: []version.ID{"b1"}},
	{id: "adopted", da: "db", root: true, parents: []version.ID{"a1"}},
	{id: "adopted1", da: "db", parents: []version.ID{"adopted"}},
	{id: "foreign", da: "db", root: true, parents: []version.ID{"nowhere"}},
	{id: "m2", da: "db", parents: []version.ID{"m", "u", "adopted1"}},
}

// wantRelated is the reference relation: the parentless versions each one
// descends from, by walking parents, intersected pairwise.
func wantRelated() map[[2]string]bool {
	parents := make(map[string][]version.ID)
	for _, s := range lineageGraph {
		parents[s.id] = s.parents
	}
	var roots func(id string) map[string]bool
	roots = func(id string) map[string]bool {
		out := make(map[string]bool)
		for _, p := range parents[id] {
			if _, held := parents[string(p)]; held {
				for r := range roots(string(p)) {
					out[r] = true
				}
			}
		}
		if len(out) == 0 {
			out[id] = true
		}
		return out
	}
	want := make(map[[2]string]bool)
	for _, x := range lineageGraph {
		for _, y := range lineageGraph {
			rx, ry := roots(x.id), roots(y.id)
			for r := range rx {
				if ry[r] {
					want[[2]string{x.id, y.id}] = true
				}
			}
		}
	}
	return want
}

// checkRelated compares Related over every pair against the reference.
func checkRelated(t *testing.T, where string, r *Repository, want map[[2]string]bool) {
	t.Helper()
	var bad []string
	for _, x := range lineageGraph {
		for _, y := range lineageGraph {
			if got := r.Related(version.ID(x.id), version.ID(y.id)); got != want[[2]string{x.id, y.id}] {
				bad = append(bad, fmt.Sprintf("%s~%s=%v", x.id, y.id, got))
			}
		}
	}
	if r.Related("a", "missing") || r.Related("missing", "missing") {
		bad = append(bad, "an unknown version is related")
	}
	if len(bad) > 0 {
		t.Fatalf("%s: Related disagrees with the graph on %s", where, strings.Join(bad, ", "))
	}
}

// TestRelatedAgreesEverywhere builds the lineage test graph on a primary
// that ships its log to a follower, checkpointing twice on the way so the
// last third stays a log suffix. Related must give the reference answer for
// every pair on the live primary, the follower, the primary reopened from
// chain plus suffix, that repository after a rebase, and the rebased
// directory reopened.
func TestRelatedAgreesEverywhere(t *testing.T) {
	want := wantRelated()
	f, err := Open(testCatalog(t), Options{Dir: t.TempDir(), Sync: true, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	p, err := Open(testCatalog(t), Options{Dir: dir, Sync: true, CheckpointMaxChain: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Log().SetShipper(shipTo{f})
	for _, da := range []string{"da", "db"} {
		if err := p.CreateGraph(da); err != nil {
			t.Fatal(err)
		}
	}
	third := len(lineageGraph) / 3
	for i, s := range lineageGraph {
		if err := p.Checkin(mkDOV(s.id, s.da, float64(i), s.parents...), s.root); err != nil {
			t.Fatal(err)
		}
		// Status re-publications carry the lineage over.
		if err := p.SetStatus(version.ID(s.id), version.StatusFinal); err != nil {
			t.Fatal(err)
		}
		if i == third || i == 2*third {
			if err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkRelated(t, "live primary", p, want)
	checkRelated(t, "follower", f, want)
	if n, _ := p.SnapshotChain(); n != 2 {
		t.Fatalf("chain holds %d elements, want a base and a delta", n)
	}
	p.Close()

	reopened := openRepoOpts(t, dir, Options{CheckpointMaxChain: 2})
	checkRelated(t, "reopened from chain and log suffix", reopened, want)
	if err := reopened.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := reopened.SnapshotChain(); n != 1 {
		t.Fatalf("chain holds %d elements after the checkpoint, want a rebase to 1", n)
	}
	checkRelated(t, "after a rebase", reopened, want)
	reopened.Close()
	checkRelated(t, "reopened from the rebased chain", openRepoOpts(t, dir, Options{}), want)
}

// TestRelatedRacesCheckins reads Related lock-free while writers in four DAs
// open lineages (roots) and merge them, so the table grows under readers.
// Run it under -race.
func TestRelatedRacesCheckins(t *testing.T) {
	r := openRepo(t, "")
	const writers, perWriter = 4, 60
	for w := 0; w < writers; w++ {
		if err := r.CreateGraph(fmt.Sprintf("d%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < writers; w++ {
				a, b := version.ID(fmt.Sprintf("w%d-r0", w)), version.ID(fmt.Sprintf("w%d-m1", w))
				if ok, _ := r.Exists(b); ok && !r.Related(a, b) {
					t.Errorf("%s and its merge child %s are unrelated", a, b)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			da := fmt.Sprintf("d%d", w)
			for i := 0; i < perWriter; i += 2 {
				root := fmt.Sprintf("w%d-r%d", w, i)
				if err := r.Checkin(mkDOV(root, da, float64(i)), true); err != nil {
					t.Error(err)
					return
				}
				if i == 0 {
					continue
				}
				merge := mkDOV(fmt.Sprintf("w%d-m%d", w, i-1), da, float64(i), version.ID(root), version.ID(fmt.Sprintf("w%d-r%d", w, i-2)))
				if err := r.Checkin(merge, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	for w := 0; w < writers; w++ {
		if !r.Related(version.ID(fmt.Sprintf("w%d-r0", w)), version.ID(fmt.Sprintf("w%d-m1", w))) ||
			r.Related(version.ID(fmt.Sprintf("w%d-r0", w)), version.ID(fmt.Sprintf("w%d-r4", w))) {
			t.Fatalf("writer %d: lineages wrong after the race", w)
		}
	}
}
