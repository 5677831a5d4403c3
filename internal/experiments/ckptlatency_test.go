package experiments

import (
	"testing"
	"time"
)

// TestE19CheckpointLatencyBounds is the CI gate on non-quiescent
// checkpointing (acceptance bound of the E19 experiment, reduced size): with
// the incremental copy-on-write cut, p99 checkin latency while checkpoints
// loop must stay within 1.5x of the steady-state p99 (with a small absolute
// floor so microsecond-scale noise on shared runners cannot fail the gate).
func TestE19CheckpointLatencyBounds(t *testing.T) {
	if raceEnabled {
		// Race instrumentation inflates the encode CPU cost ~10x and with it
		// the latency ratios; correctness under -race is covered by the
		// checkpointer-vs-writers stress test. The perf gate runs unraced.
		t.Skip("perf bounds are not meaningful under the race detector")
	}
	const checkins = 2000
	// Shared single-CPU runners see CPU theft and filesystem-journal
	// interference from sibling processes; retries separate a genuinely
	// regressed cut from a noisy window.
	const attempts = 3
	var last CheckpointLatencyResult
	pass := false
	for a := 0; a < attempts && !pass; a++ {
		res, err := RunCheckpointLatency(checkins)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: steady p99 %v, during-checkpoint p99 %v, max pause %v, %d checkpoints",
			a+1, res.SteadyP99, res.DuringP99, res.MaxPause, res.Checkpoints)
		if res.Checkpoints < 2 {
			t.Fatalf("only %d checkpoints completed while the writers ran; the phase measured nothing", res.Checkpoints)
		}
		last = res
		bound := res.SteadyP99 * 3 / 2
		// Absolute floor: both phases are fsync-bound, so a single slow
		// journal commit inside the during window (microsecond-scale steady
		// p99, millisecond-scale outlier) would fail a pure ratio on noise
		// alone. The floor stays far below the pinned quiescent design's
		// stall, whose exclusive encode pause alone was ~10ms at this size.
		if floor := res.SteadyP99 + 3*time.Millisecond; bound < floor {
			bound = floor
		}
		// The pause gate is the direct design signal and is immune to
		// fsync-queue noise: the COW cut holds the repository lock for a
		// 64-pointer copy (~3µs measured), the pinned quiescent design held
		// it for the full encode (~10ms). 2ms of headroom tolerates scheduler
		// preemption inside the cut on a stolen CPU.
		pass = res.DuringP99 <= bound && res.MaxPause <= 2*time.Millisecond
	}
	if !pass {
		t.Fatalf("during-checkpoint p99 %v vs steady %v (1.5x acceptance bound) or max exclusive pause %v (2ms ceiling) regressed",
			last.DuringP99, last.SteadyP99, last.MaxPause)
	}
}

// TestE19SmallSmoke keeps the measurement path exercised at a tiny size in
// the regular test run.
func TestE19SmallSmoke(t *testing.T) {
	res, err := RunCheckpointLatency(20)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyP99 <= 0 || res.DuringP99 <= 0 {
		t.Fatalf("degenerate percentiles: %+v", res)
	}
}
