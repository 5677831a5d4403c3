package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsRun(t *testing.T) {
	reports, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 14 {
		t.Fatalf("got %d reports, want 14", len(reports))
	}
	for _, rep := range reports {
		if len(rep.Rows) == 0 {
			t.Errorf("%s: empty report", rep.ID)
		}
		out := rep.String()
		if !strings.Contains(out, rep.ID) || !strings.Contains(out, rep.Title) {
			t.Errorf("%s: rendering broken", rep.ID)
		}
	}
}

func TestE7MatrixMatchesFigure(t *testing.T) {
	rep, err := E7StateGraph()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 15 {
		t.Fatalf("matrix rows = %d, want 15 operations", len(rep.Rows))
	}
	// Terminated column (last) must be all illegal.
	for _, row := range rep.Rows {
		if row[len(row)-1] != "·" {
			t.Fatalf("operation %s legal in terminated state", row[0])
		}
	}
}

func TestE9ShapeHolds(t *testing.T) {
	rep, err := E9Cooperation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		concord := parseF(t, row[1])
		ct := parseF(t, row[2])
		flat := parseF(t, row[3])
		if !(concord < ct && ct <= flat+1e-9) {
			t.Fatalf("N=%s: shape violated: %g !< %g !<= %g", row[0], concord, ct, flat)
		}
	}
	// Speedup grows with N (near-linear claim).
	first := parseF(t, strings.TrimSuffix(rep.Rows[0][4], "x"))
	lastRow := rep.Rows[len(rep.Rows)-1]
	last := parseF(t, strings.TrimSuffix(lastRow[4], "x"))
	if last <= first {
		t.Fatalf("speedup not growing: %g then %g", first, last)
	}
}

func TestE10ExactlyOnce(t *testing.T) {
	rep, err := E10CommitProtocols()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if row[1] != row[2] || row[2] != row[3] {
			t.Fatalf("loss %s: tx=%s committed=%s effects=%s", row[0], row[1], row[2], row[3])
		}
	}
}

func TestE11LostWorkBoundedByInterval(t *testing.T) {
	rep, err := E11RecoveryPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		lost := parseF(t, row[3])
		if strings.HasPrefix(row[0], "none") {
			if lost != 23 {
				t.Fatalf("whole-DOP rollback lost %g, want 23 (all work)", lost)
			}
			continue
		}
		interval := parseF(t, row[0])
		if lost >= interval {
			t.Fatalf("interval %g lost %g work units (must be < interval)", interval, lost)
		}
	}
}

func TestE12MultiWorkstationRuns(t *testing.T) {
	res, err := RunMultiWorkstation(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkins != 20 {
		t.Fatalf("checkins = %d, want 20", res.Checkins)
	}
	if res.OpsPerSec() <= 0 {
		t.Fatalf("ops/s = %g", res.OpsPerSec())
	}
	if res.WALAppends == 0 || res.WALBatches == 0 || res.WALBatches > res.WALAppends {
		t.Fatalf("WAL stats appends=%d batches=%d", res.WALAppends, res.WALBatches)
	}
}

// TestE13RestartBounded asserts the acceptance criterion on the
// deterministic axis (disk bytes; latency is too noisy for CI): with
// checkpointing, quadrupling the history must not grow the on-disk
// footprint, while without it the footprint scales with history.
func TestE13RestartBounded(t *testing.T) {
	smallOn, err := RunRestart(4000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	largeOn, err := RunRestart(16000, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded by live state: allow slack for where the last checkpoint
	// fell, but nothing near the 4x the history grew by.
	if largeOn.DiskBytes > 2*smallOn.DiskBytes {
		t.Fatalf("checkpointed footprint scales with history: %d -> %d bytes", smallOn.DiskBytes, largeOn.DiskBytes)
	}
	largeOff, err := RunRestart(16000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if largeOff.DiskBytes < 3*largeOn.DiskBytes {
		t.Fatalf("full-replay footprint %d not clearly above checkpointed %d", largeOff.DiskBytes, largeOn.DiskBytes)
	}
	if largeOn.Reopen <= 0 || largeOff.Reopen <= 0 {
		t.Fatalf("restart latencies not measured: on=%v off=%v", largeOn.Reopen, largeOff.Reopen)
	}
}

// TestE14CacheDeltaBounds is the E14 acceptance check in short mode (one
// mid-size configuration): re-checkout of an unmodified object transfers
// O(hash) bytes, and a small edit to a large object ships a delta at least
// 5x smaller than the full encoding — with content equality asserted inside
// RunCacheDelta via the canonical encodings on both ends — and a checkout
// that offers an unrelated base gets the full version.
func TestE14CacheDeltaBounds(t *testing.T) {
	const parts, edits, partBytes = 256, 2, 480
	res, err := RunCacheDelta(parts, edits, partBytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.ObjectBytes < 100<<10 {
		t.Fatalf("E14 object only %d bytes; the bounds below assume a large object", res.ObjectBytes)
	}
	if res.NotModifiedBytes > 1024 {
		t.Fatalf("NotModified re-checkout transferred %d bytes, want O(hash)", res.NotModifiedBytes)
	}
	if res.ColdBytes < uint64(res.ObjectBytes) {
		t.Fatalf("cold checkout transferred %d bytes for a %d-byte object", res.ColdBytes, res.ObjectBytes)
	}
	if res.CheckinDeltaBytes*5 > uint64(res.ObjectBytes) {
		t.Fatalf("checkin delta %d bytes vs full %d — want ≥ 5x smaller", res.CheckinDeltaBytes, res.ObjectBytes)
	}
	if res.CheckoutDeltaBytes*5 > uint64(res.ObjectBytes) {
		t.Fatalf("checkout delta %d bytes vs full %d — want ≥ 5x smaller", res.CheckoutDeltaBytes, res.ObjectBytes)
	}
	// The losing side of the negotiation: an unrelated base is answered in
	// full (RunLostDelta fails on any other mode).
	lost, err := RunLostDelta(parts, partBytes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lost.FullBytes < uint64(lost.ObjectBytes) {
		t.Fatalf("lost-delta checkout transferred %d bytes for a %d-byte object", lost.FullBytes, lost.ObjectBytes)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
