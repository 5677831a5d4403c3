package repo

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
)

// chainObject is a floorplan whose cell is size random letters behind a
// marker naming the version, so a test can find its payload in a file.
func chainObject(rng *rand.Rand, id version.ID, size int) *catalog.Object {
	cell := make([]byte, size)
	for j := range cell {
		cell[j] = 'a' + byte(rng.Intn(26))
	}
	copy(cell, "<"+id+">")
	return catalog.NewObject("floorplan").Set("cell", catalog.Str(string(cell))).Set("area", catalog.Float(1))
}

// checkinChain derives versions prefix000.. one from the next, starting from
// parent ("" checks the first in as a root), and returns their IDs and the
// content hash each must read back with.
func checkinChain(t *testing.T, r *Repository, rng *rand.Rand, prefix string, parent version.ID, n, size int) ([]version.ID, map[version.ID][]byte) {
	t.Helper()
	ids := make([]version.ID, n)
	sums := make(map[version.ID][]byte, n)
	for i := range ids {
		id := version.ID(fmt.Sprintf("%s%03d", prefix, i))
		obj := chainObject(rng, id, size)
		v := &version.DOV{ID: id, DOT: "floorplan", DA: "da", Object: obj}
		if parent != "" {
			v.Parents = []version.ID{parent}
		}
		if err := r.Checkin(v, parent == ""); err != nil {
			t.Fatal(err)
		}
		enc, err := catalog.EncodeObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		ids[i], sums[id], parent = id, catalog.HashEncoded(enc), id
	}
	return ids, sums
}

// readsBack checks every version reads back with its content hash, through
// Lookup's bytes.
func readsBack(t *testing.T, r *Repository, sums map[version.ID][]byte) {
	t.Helper()
	for id, want := range sums {
		_, enc, _, err := r.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", id, err)
		}
		if !bytes.Equal(catalog.HashEncoded(enc), want) {
			t.Fatalf("Lookup(%s) returned bytes that do not match the checkin", id)
		}
	}
}

// TestColdVersionsLeaveHeap pins the residency rule (DESIGN.md §3.6): once a
// checkpoint holds a version that has a child, its payload leaves the heap.
// A 256-version × 64 KiB derivation chain is checkpointed and extended by 8
// uncheckpointed versions; the heap may then hold the last checkpointed
// leaf and the 8 new versions (1.25× their payload) plus 2 KiB of metadata
// per version and 2 MiB for the log's buffers — live, and again after a
// reopen (where the 8 come back from the log suffix). Keeping every payload
// resident is 16 MiB and fails.
func TestColdVersionsLeaveHeap(t *testing.T) {
	const n, extra, size = 256, 8, 64 << 10
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	bound := func(phase string, before, after uint64, resident int) {
		t.Helper()
		growth := float64(after) - float64(before)
		limit := 1.25*float64(resident*size) + float64((n+extra)*2<<10) + 2<<20
		t.Logf("%s: heap grew %.2f MiB for %.1f MiB of checked-in payload, bound %.2f MiB",
			phase, growth/(1<<20), float64((n+extra)*size)/(1<<20), limit/(1<<20))
		if growth > limit {
			t.Fatalf("%s: heap grew %.0f bytes, bound %.0f (%d resident payloads of %d)", phase, growth, limit, resident, n+extra)
		}
	}

	before := heapInuse()
	r, err := Open(testCatalog(t), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	ids, sums := checkinChain(t, r, rng, "v", "", n, size)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, more := checkinChain(t, r, rng, "w", ids[n-1], extra, size)
	for id, s := range more {
		sums[id] = s
	}
	bound("after checkpoint", before, heapInuse(), 1+extra)
	readsBack(t, r, sums)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = nil

	before = heapInuse()
	r, err = Open(testCatalog(t), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	bound("after reopen", before, heapInuse(), extra)
	readsBack(t, r, sums)
	runtime.KeepAlive(r)
}

// corruptPayload flips one byte inside the payload of version id in the
// chain file it lives in, found by the marker chainObject put there.
func corruptPayload(t *testing.T, dir string, id version.ID) {
	t.Helper()
	marker := []byte("<" + id + ">")
	files, err := filepath.Glob(filepath.Join(dir, "snap-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, marker); i >= 0 {
			f, err := os.OpenFile(name, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{data[i+len(marker)] ^ 0x20}, int64(i+len(marker))); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no chain file holds %s", id)
}

// TestColdReadDetectsCorruption: a cold payload is checked on every read. A
// byte flipped in the chain file after the checkpoint makes Lookup, Object
// and StateDigest fail with ErrCorrupt instead of returning the bytes; the
// other versions still read back.
func TestColdReadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r := openFast(t, dir)
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	ids, sums := checkinChain(t, r, rand.New(rand.NewSource(2)), "v", "", 4, 4<<10)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	victim := ids[1]
	corruptPayload(t, dir, victim)
	if _, enc, _, err := r.Lookup(victim); !errors.Is(err, ErrCorrupt) || enc != nil {
		t.Fatalf("Lookup of a corrupted cold version = %d bytes, %v; want no bytes and ErrCorrupt", len(enc), err)
	}
	if obj, err := r.Object(victim); !errors.Is(err, ErrCorrupt) || obj != nil {
		t.Fatalf("Object of a corrupted cold version = %v, %v; want ErrCorrupt", obj, err)
	}
	if _, err := r.StateDigest(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("StateDigest over a corrupted cold version = %v, want ErrCorrupt", err)
	}
	delete(sums, victim)
	readsBack(t, r, sums)
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestReadersSurviveRebase: readers loop Lookup over cold versions while
// every checkpoint rebases (CheckpointMaxChain 1) and deletes the files the
// readers' locations named. A reader that races the close retries at the
// moved location, so none sees an error or wrong bytes. After every rebase
// the repository holds one descriptor per chain element plus the log's
// active segment, and none after Close.
func TestReadersSurviveRebase(t *testing.T) {
	const rounds, perRound, readers = 12, 8, 4
	dir := t.TempDir()
	idle := openFDs(t)
	r, err := Open(testCatalog(t), Options{Dir: dir, CheckpointMaxChain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ids, sums := checkinChain(t, r, rng, "v", "", perRound, 2<<10)
	// The readers' set: every version but the chain's leaf, which is cold
	// once the checkpoint after its child committed.
	type readSet struct {
		ids  []version.ID
		sums map[version.ID][]byte
	}
	var set atomic.Pointer[readSet]
	publish := func() {
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		set.Store(&readSet{ids: ids[:len(ids)-1], sums: maps.Clone(sums)})
	}
	publish()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	var reads atomic.Int64
	var pause sync.RWMutex
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rs := set.Load()
				id := rs.ids[i%len(rs.ids)]
				pause.RLock()
				_, enc, _, err := r.Lookup(id)
				pause.RUnlock()
				if err != nil {
					t.Errorf("Lookup(%s) during rebases: %v", id, err)
					return
				}
				if !bytes.Equal(catalog.HashEncoded(enc), rs.sums[id]) {
					t.Errorf("Lookup(%s) during rebases returned wrong bytes", id)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for round := 1; round <= rounds; round++ {
		more, moreSums := checkinChain(t, r, rng, fmt.Sprintf("r%02d-", round), ids[len(ids)-1], perRound, 2<<10)
		ids = append(ids, more...)
		maps.Copy(sums, moreSums)
		publish()
		if n, _ := r.SnapshotChain(); n != 1 {
			t.Fatalf("round %d: chain of %d, want a rebase every checkpoint", round, n)
		}
		// Counted between reads: a read in flight when its file closed
		// keeps the descriptor until the read returns.
		pause.Lock()
		fds := openFDs(t)
		pause.Unlock()
		if got, want := fds, idle+1+1; got != want {
			t.Fatalf("round %d: %d descriptors open, want %d (idle %d + chain 1 + log segment 1)", round, got, want, idle)
		}
	}
	halt()
	if reads.Load() == 0 {
		t.Fatal("readers never completed a read")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openFDs(t); got != idle {
		t.Fatalf("%d descriptors open after Close, want the %d open before Open", got, idle)
	}
}
