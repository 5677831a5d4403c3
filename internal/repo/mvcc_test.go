package repo

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
)

// TestConcurrentReadersVsWriters hammers the lock-free read path while
// checkins, status updates and quality updates run underneath: every read
// must observe a fully consistent immutable DOV — correct payload for its
// ID, matching declared type, a legal status — never a partial write. Run
// with -race; the MVCC contract (records are never mutated after
// publication) is exactly what makes this pass.
func TestConcurrentReadersVsWriters(t *testing.T) {
	r := openRepo(t, t.TempDir())
	const das = 4
	const perDA = 40
	const readers = 8
	for i := 0; i < das; i++ {
		if err := r.CreateGraph(fmt.Sprintf("da%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var readsDone atomic.Uint64
	errs := make(chan error, das+readers)
	var wg sync.WaitGroup

	// Writers: per-DA derivation chains plus status/fulfilled churn on
	// already-published versions.
	for i := 0; i < das; i++ {
		wg.Add(1)
		go func(da int) {
			defer wg.Done()
			name := fmt.Sprintf("da%d", da)
			var prev version.ID
			for j := 0; j < perDA; j++ {
				id := version.ID(fmt.Sprintf("%s/v%d", name, j))
				v := mkDOV(string(id), name, float64(j))
				if prev != "" {
					v.Parents = []version.ID{prev}
				}
				if err := r.Checkin(v, prev == ""); err != nil {
					errs <- err
					return
				}
				if j%3 == 0 {
					if err := r.SetStatus(id, version.StatusPropagated); err != nil {
						errs <- err
						return
					}
				}
				if j%5 == 0 {
					if err := r.SetFulfilled(id, []string{"f1", "f2"}); err != nil {
						errs <- err
						return
					}
				}
				prev = id
			}
		}(i)
	}

	// Readers: spin over the whole keyspace with every lock-free entry
	// point, validating each observed record end to end.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for !stop.Load() {
				da := seed % das
				j := int(readsDone.Add(1)) % perDA
				id := version.ID(fmt.Sprintf("da%d/v%d", da, j))
				ok, err := r.Exists(id)
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					continue // not yet checked in
				}
				v, enc, hash, err := r.Lookup(id)
				if err != nil {
					// Exists raced a concurrent publish; a later Lookup must
					// succeed, but this one legitimately ran first only if
					// the version is unknown — anything else is a bug.
					if errors.Is(err, version.ErrUnknownDOV) {
						continue
					}
					errs <- err
					return
				}
				if v.ID != id || v.Object != nil {
					errs <- fmt.Errorf("inconsistent DOV %s: %+v", id, v)
					return
				}
				obj, err := catalog.DecodeObject(enc)
				if err != nil || obj.Type != v.DOT {
					errs <- fmt.Errorf("DOV %s: encoding does not decode to a %s: %v", id, v.DOT, err)
					return
				}
				if got := catalog.NumAttr(obj, "area"); got != float64(j) {
					errs <- fmt.Errorf("DOV %s payload area = %v, want %d", id, got, j)
					return
				}
				if v.Status < version.StatusWorking || v.Status > version.StatusInvalid {
					errs <- fmt.Errorf("DOV %s has impossible status %d", id, v.Status)
					return
				}
				if !bytes.Equal(hash, catalog.HashEncoded(enc)) {
					errs <- fmt.Errorf("DOV %s hash does not cover its encoding", id)
					return
				}
				if _, err := r.Graph(fmt.Sprintf("da%d", da)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// Let the writers finish (poll the version count, surfacing writer
	// errors as they happen), then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for r.DOVCount() < das*perDA {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	stop.Store(true)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := r.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestReadPathZeroAllocs pins the MVCC fast path: Lookup (the checkout read),
// Get, Exists and EncodedObject allocate nothing once the version is
// published and its hash memoized.
func TestReadPathZeroAllocs(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da", 42), true); err != nil {
		t.Fatal(err)
	}
	// Warm the hash memo.
	if _, _, err := r.EncodedObject("v1"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		meta, enc, hash, err := r.Lookup("v1")
		if err != nil || meta.ID != "v1" || len(enc) == 0 || len(hash) == 0 {
			t.Fatal("Lookup failed")
		}
	}); n != 0 {
		t.Fatalf("Lookup allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Get("v1"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Get allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if ok, err := r.Exists("v1"); err != nil || !ok {
			t.Fatal("Exists failed")
		}
	}); n != 0 {
		t.Fatalf("Exists allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := r.EncodedObject("v1"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("EncodedObject allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Graph("da"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Graph allocates %v per op, want 0", n)
	}
}

// TestExistsReportsFailStop: a fail-stopped repository must be
// distinguishable from "not stored" — Exists returns the latched fatal
// error instead of a silent false.
func TestExistsReportsFailStop(t *testing.T) {
	r := openRepo(t, "")
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da", 1), true); err != nil {
		t.Fatal(err)
	}
	r.failStop(errors.New("injected disk failure"))
	if _, err := r.Exists("v1"); !errors.Is(err, ErrFatal) {
		t.Fatalf("Exists on fail-stopped repo: err = %v, want ErrFatal", err)
	}
	if _, err := r.Get("v1"); !errors.Is(err, ErrFatal) {
		t.Fatalf("Get on fail-stopped repo: err = %v, want ErrFatal", err)
	}
	if _, _, err := r.EncodedObject("v1"); !errors.Is(err, ErrFatal) {
		t.Fatalf("EncodedObject on fail-stopped repo: err = %v, want ErrFatal", err)
	}
}
