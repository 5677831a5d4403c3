package repo

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"concord/internal/fault"
	"concord/internal/version"
	"concord/internal/wal"
)

// TestRecoverMalformedStatusRecord pins the recovery behaviour on a
// truncated/corrupt status record: a payload whose status byte is missing
// must fail recovery with an error (it used to index past the end of the
// split and panic the restart).
func TestRecoverMalformedStatusRecord(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkin(mkDOV("v1", "da", 100), true); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a status record with the status byte torn off, as a corrupt
	// writer (or bit rot below the CRC granularity of the upper layer)
	// would leave it.
	l, err := wal.Open(filepath.Join(dir, "repo.wal"), wal.Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recDOVStatus, "da", []byte("v1\x00")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(testCatalog(t), Options{Dir: dir, Sync: true})
	if err == nil {
		t.Fatal("Open accepted a status record with no status byte")
	}
	if !strings.Contains(err.Error(), "recover status") {
		t.Fatalf("unexpected recovery error: %v", err)
	}
}

// TestConcurrentMultiDAWritersReplayEquivalence races checkins across many
// DAs — with cross-DA parents and status flips in the mix — then crashes and
// recovers the directory. The sharded write path must leave a log whose
// replay rebuilds exactly the state the live repository held at the crash,
// and every committed version must be present.
func TestConcurrentMultiDAWritersReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	const das = 6
	const perDA = 30
	for i := 0; i < das; i++ {
		if err := r.CreateGraph(fmt.Sprintf("da%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// committed is the cross-DA parent pool: only published (checked-in)
	// versions enter it, so a racing writer can legally derive from them.
	var cmu sync.Mutex
	var committed []version.ID
	addCommitted := func(id version.ID) {
		cmu.Lock()
		committed = append(committed, id)
		cmu.Unlock()
	}
	pickCommitted := func(rng *rand.Rand) (version.ID, bool) {
		cmu.Lock()
		defer cmu.Unlock()
		if len(committed) == 0 {
			return "", false
		}
		return committed[rng.Intn(len(committed))], true
	}
	var wg sync.WaitGroup
	errs := make(chan error, das)
	for i := 0; i < das; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			da := fmt.Sprintf("da%d", w)
			var prev version.ID
			for j := 0; j < perDA; j++ {
				id := version.ID(fmt.Sprintf("%s/v%02d", da, j))
				v := mkDOV(string(id), da, float64(j))
				root := prev == ""
				if !root {
					v.Parents = []version.ID{prev}
					// Sometimes derive from another DA's committed version
					// (a usage input made visible along relationships).
					if p, ok := pickCommitted(rng); ok && rng.Intn(3) == 0 && p != prev {
						v.Parents = append(v.Parents, p)
					}
				}
				if err := r.Checkin(v, root); err != nil {
					errs <- fmt.Errorf("%s: %w", id, err)
					return
				}
				addCommitted(id)
				if rng.Intn(4) == 0 {
					if err := r.SetStatus(id, version.Status(1+rng.Intn(3))); err != nil {
						errs <- err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if r.DOVCount() != das*perDA {
		t.Fatalf("count = %d, want %d", r.DOVCount(), das*perDA)
	}
	wantDigest := digest(t, r)
	// Crash: no Close — Sync=true made every committed operation durable.
	rec, err := Open(testCatalog(t), Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if err := rec.CheckConsistency(); err != nil {
		t.Fatalf("recovery consistency: %v", err)
	}
	if got := digest(t, rec); got != wantDigest {
		t.Fatalf("recovered state differs from the live repository at the crash:\n--- live\n%s--- recovered\n%s", wantDigest, got)
	}
	if rec.DOVCount() != das*perDA {
		t.Fatalf("recovered %d DOVs, want %d", rec.DOVCount(), das*perDA)
	}
	for _, id := range committed {
		if ok, err := rec.Exists(id); err != nil || !ok {
			t.Fatalf("committed %s missing after recovery (ok=%t err=%v)", id, ok, err)
		}
	}
}

// TestShardedCheckinsGroupCommit is the write-path gate: eight writer DAs,
// each chaining 150 forced checkins into its own graph, must pack at least 2
// records into each forced log write on average (appends ÷ batches). That
// group-commit factor is what the sharded pipeline buys over the serial write
// path, which paid one fsync per checkin; unlike a throughput ratio it does
// not move with CPU theft on a shared runner.
func TestShardedCheckinsGroupCommit(t *testing.T) {
	const writers, rounds = 8, 150
	r := openRepo(t, t.TempDir())
	for w := 0; w < writers; w++ {
		da := fmt.Sprintf("da%d", w)
		if err := r.CreateGraph(da); err != nil {
			t.Fatal(err)
		}
		if err := r.Checkin(mkDOV(da+"/root", da, 0), true); err != nil {
			t.Fatal(err)
		}
	}
	a0, b0, _ := r.log.Stats()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(da string) {
			defer wg.Done()
			prev := version.ID(da + "/root")
			for j := 0; j < rounds; j++ {
				v := mkDOV(fmt.Sprintf("%s/v%03d", da, j), da, float64(j), prev)
				if err := r.Checkin(v, false); err != nil {
					t.Errorf("%s: %v", v.ID, err)
					return
				}
				prev = v.ID
			}
		}(fmt.Sprintf("da%d", w))
	}
	wg.Wait()
	a1, b1, _ := r.log.Stats()
	if b1 == b0 {
		t.Fatal("no forced log writes")
	}
	factor := float64(a1-a0) / float64(b1-b0)
	t.Logf("%d appends in %d batches (group factor %.1f)", a1-a0, b1-b0, factor)
	if factor < 2 {
		t.Fatalf("group-commit factor %.2f at %d writers, want >= 2", factor, writers)
	}
}

// TestCheckpointCrashRacingMultiDAWriters injects a crash at every step of
// the checkpoint protocol while checkins race across four DAs. Whatever the
// interrupted checkpoint left behind, recovery must surface every committed
// version and a consistent graph set.
func TestCheckpointCrashRacingMultiDAWriters(t *testing.T) {
	for _, c := range crashCases() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			crash := errors.New("injected crash")
			reg := fault.New()
			r, err := Open(testCatalog(t), Options{Dir: dir, Sync: true, SegmentBytes: 4 << 10, Faults: reg})
			if err != nil {
				t.Fatal(err)
			}
			// Pre-crash history so every protocol step has work to do (in
			// particular sealed segments below the mark, or the
			// segment-deletion crash point never fires).
			churn(t, r, "w-", 4, 150)
			const das = 4
			const perDA = 20
			for i := 0; i < das; i++ {
				if err := r.CreateGraph(fmt.Sprintf("da%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			werrs := make(chan error, das)
			start := make(chan struct{})
			for i := 0; i < das; i++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					da := fmt.Sprintf("da%d", w)
					var prev version.ID
					for j := 0; j < perDA; j++ {
						id := version.ID(fmt.Sprintf("%s/v%02d", da, j))
						v := mkDOV(string(id), da, float64(j))
						if prev != "" {
							v.Parents = []version.ID{prev}
						}
						if err := r.Checkin(v, prev == ""); err != nil {
							werrs <- err
							return
						}
						prev = id
					}
				}(i)
			}
			close(start)
			// Let the writers interleave with a checkpoint that dies at the
			// injected step (the crash leaves the process "half checkpointed").
			// The first attempt rebases; the delta-only point fires on a
			// follow-up attempt.
			crashInto(t, r, dir, reg, c, crash)
			wg.Wait()
			close(werrs)
			for err := range werrs {
				t.Fatal(err)
			}
			// Abandon r (process death) and recover from the directory alone.
			r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
			if err := r2.CheckConsistency(); err != nil {
				t.Fatalf("crash at %s: consistency: %v", c.name, err)
			}
			if want := das*perDA + 4; r2.DOVCount() != want {
				t.Fatalf("crash at %s: recovered %d DOVs, want %d", c.name, r2.DOVCount(), want)
			}
		})
	}
}

// TestClaimWaitsForInFlightRacer pins the duplicate-check contract of the
// sharded index: a racer finding an ID merely *claimed* (outcome open) must
// wait for the claim to resolve rather than report a duplicate —
// ErrDuplicateDOV has to mean "durably installed", which the server-TM's
// idempotent 2PC commit relies on.
func TestClaimWaitsForInFlightRacer(t *testing.T) {
	var x dovIndex
	x.init()
	if !x.claim("v1") {
		t.Fatal("first claim refused")
	}
	got := make(chan bool, 1)
	go func() { got <- x.claim("v1") }()
	select {
	case r := <-got:
		t.Fatalf("racing claim resolved to %t while the first claim was still open", r)
	case <-time.After(20 * time.Millisecond):
		// parked, as it should be
	}
	// The first checkin aborts: the racer must win the claim (the version
	// was never installed, so it is free to).
	x.unclaim("v1")
	if r := <-got; !r {
		t.Fatal("claim after the racer aborted reported a duplicate")
	}
	// Publication resolves waiters the other way: a racer parked behind a
	// claim that publishes must see the duplicate.
	go func() { got <- x.claim("v1") }()
	select {
	case r := <-got:
		t.Fatalf("racing claim resolved to %t while the second claim was still open", r)
	case <-time.After(20 * time.Millisecond):
	}
	x.put("v1", &dovEntry{dov: &version.DOV{ID: "v1"}})
	if r := <-got; r {
		t.Fatal("claim after publication did not report the duplicate")
	}
}
