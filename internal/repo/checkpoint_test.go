package repo

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"concord/internal/fault"
	"concord/internal/version"
)

// digest wraps the exported StateDigest (the scenario harness's recovery
// oracle) with test plumbing: two repositories with equal digests are
// byte-identical as far as recovery is concerned.
func digest(t *testing.T, r *Repository) string {
	t.Helper()
	d, err := r.StateDigest()
	if err != nil {
		t.Fatalf("StateDigest: %v", err)
	}
	return d
}

// churn runs a deterministic update-heavy workload: a few live DOVs, then
// rounds of status flips and metadata overwrites — history that grows the
// log without growing live state.
func churn(t *testing.T, r *Repository, tag string, dovs, rounds int) {
	t.Helper()
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dovs; i++ {
		v := mkDOV(fmt.Sprintf("%sv%03d", tag, i), "da", float64(100+i))
		if i > 0 {
			v.Parents = []version.ID{version.ID(fmt.Sprintf("%sv%03d", tag, i-1))}
		}
		if err := r.Checkin(v, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	statuses := []version.Status{version.StatusWorking, version.StatusPropagated, version.StatusFinal}
	for i := 0; i < rounds; i++ {
		id := version.ID(fmt.Sprintf("%sv%03d", tag, i%dovs))
		if err := r.SetStatus(id, statuses[i%len(statuses)]); err != nil {
			t.Fatal(err)
		}
		if err := r.PutMeta(fmt.Sprintf("hot/%d", i%4), []byte(fmt.Sprintf("round-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// crashCheckpointAt drives checkpoints (forcing a little log growth before
// each attempt) until the armed point delivers its error. The first
// checkpoint of a fresh repository is a rebase, so the delta-only point
// (CrashIncAppended) fires on the second attempt, which writes a delta.
func crashCheckpointAt(t *testing.T, r *Repository, reg *fault.Registry, point string, crash error) {
	t.Helper()
	reg.Arm(point, crash)
	var err error
	for try := 0; try < 8 && err == nil; try++ {
		if perr := r.PutMeta("ckpt/poke", []byte{byte(try)}); perr != nil {
			t.Fatal(perr)
		}
		err = r.Checkpoint()
	}
	if !errors.Is(err, crash) {
		t.Fatalf("Checkpoint with crash at %s = %v, want injected crash", point, err)
	}
}

func openRepoOpts(t *testing.T, dir string, opts Options) *Repository {
	t.Helper()
	opts.Dir = dir
	opts.Sync = true
	r, err := Open(testCatalog(t), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestCheckpointBoundsDiskAndReplay is the acceptance check: after N
// operations and a checkpoint, both the on-disk log and the replay work of a
// restart are bounded by live state, not by N.
func TestCheckpointBoundsDiskAndReplay(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	churn(t, r, "a-", 8, 400)
	before := r.diskLogBytes()
	want := digest(t, r)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := r.diskLogBytes()
	if after >= before/4 {
		t.Fatalf("disk bytes %d -> %d: checkpoint did not compact the churn history", before, after)
	}
	// Replay work after the checkpoint is the suffix only.
	if grew := r.LogSize() - int64(r.LowWater()); grew != 0 {
		t.Fatalf("replay suffix = %d bytes right after checkpoint", grew)
	}
	r.Close()

	r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	if err := r2.CheckConsistency(); err != nil {
		t.Fatalf("consistency after snapshot recovery: %v", err)
	}
	if got := digest(t, r2); got != want {
		t.Fatalf("state after snapshot+suffix recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
	// Work continues and a further checkpoint still compacts.
	churn(t, r2, "b-", 8, 50)
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// churnFootprint logs history status flips and metadata overwrites over 24
// live versions, checkpointing every ckptEvery operations (0: never), and
// returns the on-disk footprint of the log segments plus the snapshot chain.
func churnFootprint(t *testing.T, history, ckptEvery int) int64 {
	t.Helper()
	const live = 24
	r, err := Open(testCatalog(t), Options{Dir: t.TempDir(), SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < live; i++ {
		v := mkDOV(fmt.Sprintf("v%03d", i), "da", float64(100+i))
		if i > 0 {
			v.Parents = []version.ID{version.ID(fmt.Sprintf("v%03d", i-1))}
		}
		if err := r.Checkin(v, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < history; i++ {
		if err := r.SetStatus(version.ID(fmt.Sprintf("v%03d", i%live)), version.Status(1+i%3)); err != nil {
			t.Fatal(err)
		}
		if err := r.PutMeta(fmt.Sprintf("hot/%d", i%8), []byte(fmt.Sprintf("round-%d", i))); err != nil {
			t.Fatal(err)
		}
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r.diskLogBytes()
}

// TestCheckpointedFootprintTracksLiveState is the bounded-restart gate on the
// deterministic axis (disk bytes; restart latency is too noisy for CI): with
// a checkpoint every 1024 operations, quadrupling the history must not grow
// the on-disk footprint, while without checkpoints it scales with history.
func TestCheckpointedFootprintTracksLiveState(t *testing.T) {
	smallOn := churnFootprint(t, 4000, 1024)
	largeOn := churnFootprint(t, 16000, 1024)
	// Bounded by live state: allow slack for where the last checkpoint
	// fell, but nothing near the 4x the history grew by.
	if largeOn > 2*smallOn {
		t.Fatalf("checkpointed footprint scales with history: %d -> %d bytes", smallOn, largeOn)
	}
	if largeOff := churnFootprint(t, 16000, 0); largeOff < 3*largeOn {
		t.Fatalf("full-replay footprint %d not clearly above checkpointed %d", largeOff, largeOn)
	}
}

// crashCase is one crash-injection case: a checkpoint fault point, reached
// in the first checkpoint that passes it or, with delta, in a delta taken
// after a clean rebase.
type crashCase struct {
	name, point string
	delta       bool
}

// crashCases lists every point of CrashPoints, then once more, reached in a
// delta, the payload-file points every checkpoint passes: the first
// checkpoint of a fresh repository rebases, so the plain cases crash there
// in a rebase.
func crashCases() []crashCase {
	var out []crashCase
	for _, p := range CrashPoints {
		out = append(out, crashCase{name: p, point: p})
	}
	for _, p := range []string{CrashSnapshotPartial, CrashSnapshotWritten} {
		out = append(out, crashCase{name: p + "-in-delta", point: p, delta: true})
	}
	return out
}

// crashInto takes a clean rebase first when the case crashes in a delta,
// then crashes r's checkpoint at the case's point. A crash at a payload-file
// point leaves the payload file behind; its name tells that the crashed
// checkpoint was of the case's kind.
func crashInto(t *testing.T, r *Repository, dir string, reg *fault.Registry, c crashCase, crash error) {
	t.Helper()
	if c.delta {
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n, _ := r.SnapshotChain(); n != 1 {
			t.Fatalf("clean checkpoint before %s: chain of %d, want a rebase", c.name, n)
		}
	}
	crashCheckpointAt(t, r, reg, c.point, crash)
	if c.point != CrashSnapshotPartial && c.point != CrashSnapshotWritten {
		return
	}
	suffix := ".base"
	if c.delta {
		suffix = ".inc"
	}
	for _, f := range snapFiles(t, dir) {
		if strings.HasSuffix(f, suffix) && f != snapFileName(r.SnapshotLSN(), true) {
			return
		}
	}
	t.Fatalf("crash at %s left no %s payload file: the crashed checkpoint was not of the intended kind", c.name, suffix)
}

// TestCheckpointCrashPoints exercises a simulated crash at every step of the
// checkpoint protocol — mid payload write, before/after the manifest
// rewrite or append, before/after the log-mark install, before/after segment
// deletion — and asserts recovery loses nothing durable at any of them.
func TestCheckpointCrashPoints(t *testing.T) {
	for _, c := range crashCases() {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			crash := errors.New("injected crash")
			reg := fault.New()
			r, err := Open(testCatalog(t), Options{Dir: dir, Sync: true, SegmentBytes: 4 << 10, Faults: reg})
			if err != nil {
				t.Fatal(err)
			}
			churn(t, r, "a-", 8, 200)
			crashInto(t, r, dir, reg, c, crash)
			want := digest(t, r)
			// The process dies here: abandon r without Close and recover
			// from the directory alone.
			r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
			if err := r2.CheckConsistency(); err != nil {
				t.Fatalf("crash at %s: consistency: %v", c.name, err)
			}
			// Mark-semantics invariant: segment reclamation never outruns
			// what the surviving snapshot chain covers.
			if lw := r2.LowWater(); lw > r2.SnapshotLSN() {
				t.Fatalf("crash at %s: low-water mark %d beyond chain coverage %d", c.name, lw, r2.SnapshotLSN())
			}
			if got := digest(t, r2); got != want {
				t.Fatalf("crash at %s lost durable state:\n--- want\n%s--- got\n%s", c.name, want, got)
			}
			// The repository keeps working and the interrupted checkpoint
			// can be completed.
			churn(t, r2, "b-", 8, 20)
			if err := r2.Checkpoint(); err != nil {
				t.Fatalf("re-checkpoint after crash at %s: %v", c.name, err)
			}
			want2 := digest(t, r2)
			r2.Close()
			r3 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
			if got := digest(t, r3); got != want2 {
				t.Fatalf("crash at %s: post-recovery checkpoint diverged", c.name)
			}
		})
	}
}

// TestRecoveryEquivalenceRandom is the property test: a random workload runs
// against twin repositories; one checkpoints at a random point (and crashes
// mid-life), the other never checkpoints. The state recovered via
// snapshot+suffix must be byte-identical to the state rebuilt by full replay
// of the uncheckpointed twin.
func TestRecoveryEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dirA, dirB := t.TempDir(), t.TempDir()
			a := openRepoOpts(t, dirA, Options{SegmentBytes: 2 << 10})
			b := openRepoOpts(t, dirB, Options{})

			nOps := 60 + rng.Intn(120)
			ckptAt := rng.Intn(nOps)
			var ids []version.ID
			apply := func(op func(r *Repository) error) {
				t.Helper()
				for _, r := range []*Repository{a, b} {
					if err := op(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			apply(func(r *Repository) error { return r.CreateGraph("da") })
			for i := 0; i < nOps; i++ {
				if i == ckptAt {
					if err := a.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				switch k := rng.Intn(10); {
				case k < 4 || len(ids) == 0: // checkin
					id := version.ID(fmt.Sprintf("v%04d", len(ids)))
					var parents []version.ID
					root := len(ids) == 0 || rng.Intn(8) == 0
					if !root {
						parents = []version.ID{ids[rng.Intn(len(ids))]}
						if rng.Intn(3) == 0 {
							p2 := ids[rng.Intn(len(ids))]
							if p2 != parents[0] {
								parents = append(parents, p2)
							}
						}
					}
					area := float64(rng.Intn(1000))
					apply(func(r *Repository) error {
						v := mkDOV(string(id), "da", area, parents...)
						return r.Checkin(v, root)
					})
					ids = append(ids, id)
				case k < 6: // status flip
					id := ids[rng.Intn(len(ids))]
					s := version.Status(1 + rng.Intn(4))
					apply(func(r *Repository) error { return r.SetStatus(id, s) })
				case k < 9: // metadata overwrite
					key := fmt.Sprintf("meta/%d", rng.Intn(6))
					val := []byte(fmt.Sprintf("val-%d", rng.Intn(1000)))
					apply(func(r *Repository) error { return r.PutMeta(key, val) })
				default: // metadata delete
					key := fmt.Sprintf("meta/%d", rng.Intn(6))
					apply(func(r *Repository) error { return r.DeleteMeta(key) })
				}
			}
			// Crash both twins (no Close: Sync=true made every op durable).
			a2 := openRepoOpts(t, dirA, Options{SegmentBytes: 2 << 10})
			b2 := openRepoOpts(t, dirB, Options{})
			if err := a2.CheckConsistency(); err != nil {
				t.Fatalf("checkpointed twin: %v", err)
			}
			if err := b2.CheckConsistency(); err != nil {
				t.Fatalf("full-replay twin: %v", err)
			}
			got, want := digest(t, a2), digest(t, b2)
			if got != want {
				t.Fatalf("snapshot+suffix recovery differs from full replay:\n--- full replay\n%s--- snapshot+suffix\n%s", want, got)
			}
		})
	}
}

// TestCheckpointConcurrentWithCheckins races checkpoints against live
// checkin traffic: every committed version must survive the restart.
func TestCheckpointConcurrentWithCheckins(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	const writers, per = 4, 30
	for w := 0; w < writers; w++ {
		if err := r.CreateGraph(fmt.Sprintf("da%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			da := fmt.Sprintf("da%d", w)
			for i := 0; i < per; i++ {
				v := mkDOV(fmt.Sprintf("%s-v%03d", da, i), da, float64(i))
				if i > 0 {
					v.Parents = []version.ID{version.ID(fmt.Sprintf("%s-v%03d", da, i-1))}
				}
				if err := r.Checkin(v, i == 0); err != nil {
					t.Errorf("checkin: %v", err)
					return
				}
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for r.DOVCount() < writers*per {
			if err := r.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-ckptDone
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := digest(t, r)
	r.Close()
	r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	if r2.DOVCount() != writers*per {
		t.Fatalf("recovered %d DOVs, want %d", r2.DOVCount(), writers*per)
	}
	if err := r2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := digest(t, r2); got != want {
		t.Fatal("state after concurrent checkpointing differs after restart")
	}
}
