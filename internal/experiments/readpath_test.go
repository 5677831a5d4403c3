package experiments

import "testing"

// TestE15ReadScalingBounds is the CI gate on the MVCC read path (acceptance
// bounds of the E15 experiment, run at a reduced size): at 8 concurrent
// readers the lock-free index must beat the pinned server-side checkout
// throughput of the locked+cloning baseline by the 1.3x CI floor (the
// acceptance bar was 2x; the looser floor keeps shared CI runners from
// flaking) and at least halve its allocations per checkout.
func TestE15ReadScalingBounds(t *testing.T) {
	const readers, rounds = 8, 500
	base := e15LockedCloneBaseline[ModeServer][readers]
	mvcc, err := RunCheckoutScaling(readers, rounds, ModeServer)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pinned baseline: %.0f ops/s, %.1f allocs/op; mvcc: %.0f ops/s, %.1f allocs/op (speedup %.2fx)",
		base.opsPerSec, base.allocsPerOp, mvcc.OpsPerSec(), mvcc.AllocsPerOp,
		mvcc.OpsPerSec()/base.opsPerSec)
	if mvcc.OpsPerSec() < 1.3*base.opsPerSec {
		t.Fatalf("mvcc read path %.0f ops/s vs pinned baseline %.0f ops/s: below the 1.3x CI floor",
			mvcc.OpsPerSec(), base.opsPerSec)
	}
	if mvcc.AllocsPerOp > base.allocsPerOp/2 {
		t.Fatalf("mvcc read path allocates %.1f/op vs pinned baseline %.1f/op: less than 50%% reduction",
			mvcc.AllocsPerOp, base.allocsPerOp)
	}
}

// TestE15EndToEndModes smoke-tests the wire-level modes at a small size so
// the hot (NotModified) and cold (full transfer) loops stay exercised.
func TestE15EndToEndModes(t *testing.T) {
	for _, mode := range []ReadPathMode{ModeE2EHot, ModeE2ECold} {
		res, err := RunCheckoutScaling(2, 10, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Checkouts != 20 || res.OpsPerSec() <= 0 {
			t.Fatalf("%s: implausible result %+v", mode, res)
		}
	}
}
