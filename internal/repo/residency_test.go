package repo

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
)

// heapInuse reports the live heap after forcing collection (twice, so pooled
// buffers parked in sync.Pools are released too).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestResidencyIsOneCopyPerVersion pins the resident form of a stored
// version (DESIGN.md §3.6): its encoding, once. N versions of 64 KiB are
// checked in and each checked out once, then the repository is reopened
// from its log and each version checked out once more; both times the heap
// may grow by at most 1.25× the payload bytes. A decoded object kept beside
// the encoding — or a second copy filled in by the first checkout — is
// about 2× and fails.
func TestResidencyIsOneCopyPerVersion(t *testing.T) {
	const n, size = 128, 64 << 10
	dir := t.TempDir()
	cat := testCatalog(t)
	rng := rand.New(rand.NewSource(1))
	cell := make([]byte, size)
	ids := make([]version.ID, n)
	for i := range ids {
		ids[i] = version.ID(fmt.Sprintf("v%03d", i))
	}
	checkOutAll := func(r *Repository) {
		t.Helper()
		for _, id := range ids {
			if _, enc, _, err := r.Lookup(id); err != nil || len(enc) < size {
				t.Fatalf("Lookup(%s): %d bytes, %v", id, len(enc), err)
			}
		}
	}
	bound := func(phase string, before, after uint64) {
		t.Helper()
		growth, limit := float64(after)-float64(before), 1.25*n*size
		t.Logf("%s: heap grew %.1f MiB for %.1f MiB of payload (%.2fx)",
			phase, growth/(1<<20), float64(n*size)/(1<<20), growth/(n*size))
		if growth > limit {
			t.Fatalf("%s: heap grew %.0f bytes for %d bytes of payload, bound %.0f", phase, growth, n*size, limit)
		}
	}

	before := heapInuse()
	r, err := Open(cat, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		for j := range cell {
			cell[j] = 'a' + byte(rng.Intn(26))
		}
		obj := catalog.NewObject("floorplan").Set("cell", catalog.Str(string(cell))).Set("area", catalog.Float(1))
		if err := r.Checkin(&version.DOV{ID: id, DOT: "floorplan", DA: "da", Object: obj}, true); err != nil {
			t.Fatal(err)
		}
	}
	checkOutAll(r)
	bound("after checkin", before, heapInuse())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = nil

	before = heapInuse()
	r, err = Open(cat, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkOutAll(r)
	bound("after recovery", before, heapInuse())
	runtime.KeepAlive(r)
}
