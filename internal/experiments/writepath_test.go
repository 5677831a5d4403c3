package experiments

import "testing"

// TestE16WriteScalingBounds is the CI gate on the concurrent write path (the
// E16 experiment at a reduced size): at 8 concurrent writer DAs the sharded
// checkin pipeline must pack at least 2 records into each forced log write
// on average. That group-commit factor is what the pipeline buys over the
// serial write path, which paid one fsync per checkin (EXPERIMENTS.md E16
// records 7.6 at 8 writers on one CPU); unlike a throughput ratio it does
// not move with CPU theft on a shared runner.
func TestE16WriteScalingBounds(t *testing.T) {
	const writers, rounds = 8, 150
	res, err := RunCheckinScaling(writers, rounds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sharded %.0f ops/s, %d appends in %d batches (group factor %.1f)",
		res.OpsPerSec(), res.Appends, res.Batches, res.GroupFactor())
	if res.GroupFactor() < 2 {
		t.Fatalf("group-commit factor %.2f at %d writers, want >= 2", res.GroupFactor(), writers)
	}
}

// TestE16SmallSmoke keeps the full experiment path (report rows) exercised at
// a tiny size in the regular test run.
func TestE16SmallSmoke(t *testing.T) {
	rep, err := e16WritePath([]int{2}, 20, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("unexpected report shape: %d rows, want a writer row and a replay row", len(rep.Rows))
	}
}
