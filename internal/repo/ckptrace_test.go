package repo

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/version"
)

// TestCheckpointerRacesShardedWriters is the -race stress for the
// copy-on-write cut: a checkpointer loops full and incremental checkpoints
// (CheckpointMaxChain: 2 alternates the two paths) while eight per-DA writers
// drive checkins, status flips, and metadata churn. The detector proves the
// dirty-gen reads and shard-pointer captures are properly ordered against the
// writers; the pause accessor proves the exclusive window stays a pointer
// copy, not a full encode; and a restart proves the published chain is a
// consistent cut.
func TestCheckpointerRacesShardedWriters(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 8 << 10, CheckpointMaxChain: 2})
	const writers, per = 8, 40
	for w := 0; w < writers; w++ {
		if err := r.CreateGraph(fmt.Sprintf("da%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			da := fmt.Sprintf("da%d", w)
			var prev version.ID
			for j := 0; j < per; j++ {
				id := version.ID(fmt.Sprintf("%s/v%02d", da, j))
				v := mkDOV(string(id), da, float64(j))
				if prev != "" {
					v.Parents = []version.ID{prev}
				}
				if err := r.Checkin(v, prev == ""); err != nil {
					t.Errorf("checkin %s: %v", id, err)
					return
				}
				prev = id
				if j%3 == 0 {
					if err := r.SetStatus(id, version.Status(1+j%3)); err != nil {
						t.Errorf("status %s: %v", id, err)
						return
					}
				}
				if j%5 == 0 {
					if err := r.PutMeta(fmt.Sprintf("%s/meta", da), []byte{byte(j)}); err != nil {
						t.Errorf("meta %s: %v", da, err)
						return
					}
				}
			}
		}(w)
	}
	ckpts := 0
	for done.Load() < writers {
		if err := r.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", ckpts, err)
		}
		ckpts++
	}
	wg.Wait()
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpts++
	if ckpts < 3 {
		t.Fatalf("only %d checkpoints raced the writers; stress proved nothing", ckpts)
	}
	// The publish window is a pointer capture: even under the race detector's
	// slowdown it must stay far below an encode-everything quiesce.
	if _, max := r.checkpointPause(); max > 250*time.Millisecond {
		t.Fatalf("max checkpoint pause %v: exclusive window is not a pointer copy", max)
	}
	want := digest(t, r)
	r.Close()
	r2 := openRepoOpts(t, dir, Options{SegmentBytes: 8 << 10})
	if err := r2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if r2.DOVCount() != writers*per {
		t.Fatalf("recovered %d DOVs, want %d", r2.DOVCount(), writers*per)
	}
	if got := digest(t, r2); got != want {
		t.Fatalf("state after racing checkpoints differs after restart:\n--- want\n%s--- got\n%s", want, got)
	}
}

// checkpointLatency preloads 2000 live versions with forced log writes (the
// deployed shape, which anchors the steady-state baseline at real fsync
// cost), then times `checkins` chained checkins twice: with the checkpointer
// idle, and with checkpoints looping in the background. It returns the p99
// of each phase, the longest exclusive pause and the checkpoints taken.
func checkpointLatency(t *testing.T, checkins int) (steadyP99, duringP99, maxPause time.Duration, ckpts int) {
	t.Helper()
	r := openRepoOpts(t, t.TempDir(), Options{})
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	var prev version.ID
	checkin := func(id string) time.Duration {
		start := time.Now()
		if err := r.Checkin(mkDOV(id, "da", float64(100+len(id)), prev), prev == ""); err != nil {
			t.Fatal(err)
		}
		prev = version.ID(id)
		return time.Since(start)
	}
	p99 := func(tag string) time.Duration {
		samples := make([]time.Duration, checkins)
		for i := range samples {
			samples[i] = checkin(fmt.Sprintf("%s-%05d", tag, i))
		}
		slices.Sort(samples)
		return samples[int(0.99*float64(checkins-1))]
	}
	for i := 0; i < 2000; i++ {
		checkin(fmt.Sprintf("live-%05d", i))
	}
	// One checkpoint up front so the measured loop stacks incremental deltas
	// on a published chain, rebasing whenever they reach the base's size.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	steadyP99 = p99("steady")

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := r.Checkpoint(); err != nil {
				done <- err
				return
			}
			ckpts++
			// Pace the loop. An unthrottled spin measures abuse, not the
			// design: Checkpoint's no-op check takes the repository lock
			// exclusively, and a rebase payload fsync every millisecond
			// serializes with the writers' commit fsyncs in the filesystem
			// journal. A ~25ms cadence is still far denser than any deployed
			// trigger (log-growth thresholds, seconds apart).
			time.Sleep(25 * time.Millisecond)
		}
	}()
	duringP99 = p99("during")
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("background checkpointer: %v", err)
	}
	_, maxPause = r.checkpointPause()
	return steadyP99, duringP99, maxPause, ckpts
}

// TestCheckpointLatencyBounds is the gate on non-quiescent checkpointing:
// with the incremental copy-on-write cut, p99 checkin latency while
// checkpoints loop must stay within 1.5x of the steady-state p99, and no
// checkpoint may hold the repository lock exclusively for more than 2ms.
func TestCheckpointLatencyBounds(t *testing.T) {
	if raceEnabled {
		// Race instrumentation inflates the encode CPU cost ~10x and with it
		// the latency ratios; TestCheckpointerRacesShardedWriters covers
		// correctness under -race. The perf gate runs unraced.
		t.Skip("perf bounds are not meaningful under the race detector")
	}
	// Shared single-CPU runners see CPU theft and filesystem-journal
	// interference from sibling processes; retries separate a genuinely
	// regressed cut from a noisy window.
	const attempts = 3
	var steady, during, pause time.Duration
	pass := false
	for a := 0; a < attempts && !pass; a++ {
		var ckpts int
		steady, during, pause, ckpts = checkpointLatency(t, 2000)
		t.Logf("attempt %d: steady p99 %v, during-checkpoint p99 %v, max pause %v, %d checkpoints",
			a+1, steady, during, pause, ckpts)
		if ckpts < 2 {
			t.Fatalf("only %d checkpoints completed while the writers ran; the phase measured nothing", ckpts)
		}
		// Absolute floor: both phases are fsync-bound, so one slow journal
		// commit inside the during window would fail a pure ratio on noise
		// alone. The floor stays far below the retired quiescent design's
		// stall, whose exclusive encode pause alone was ~10ms at this size.
		bound := max(steady*3/2, steady+3*time.Millisecond)
		// The pause gate is the direct design signal and is immune to
		// fsync-queue noise: the cut holds the lock for a 64-pointer copy
		// (µs), the quiescent design held it for the full encode (~10ms).
		// 2ms of headroom tolerates preemption inside the cut.
		pass = during <= bound && pause <= 2*time.Millisecond
	}
	if !pass {
		t.Fatalf("during-checkpoint p99 %v vs steady %v (1.5x acceptance bound) or max exclusive pause %v (2ms ceiling) regressed",
			during, steady, pause)
	}
}
