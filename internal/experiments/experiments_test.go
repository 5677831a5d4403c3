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
	if len(reports) != 12 {
		t.Fatalf("got %d reports, want 12", len(reports))
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

// TestE12RunsPastAHundredRounds: every round checks in a valid object, so
// a run is not bounded by the round count.
func TestE12RunsPastAHundredRounds(t *testing.T) {
	res, err := RunMultiWorkstation(1, 102)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkins != 102 {
		t.Fatalf("checkins = %d, want 102", res.Checkins)
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
