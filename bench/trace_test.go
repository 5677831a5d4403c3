package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	for _, c := range []struct {
		name       string
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{"no children", 0, 100, nil, 100},
		{"two apart", 0, 100, [][2]int64{{10, 30}, {50, 60}}, 70},
		{"given out of order", 0, 100, [][2]int64{{50, 60}, {10, 30}}, 70},
		{"overlapping count once", 0, 100, [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested count once", 0, 100, [][2]int64{{10, 60}, {20, 30}}, 50},
		{"sticking out is clipped", 10, 100, [][2]int64{{0, 20}, {90, 120}}, 70},
		{"outside does not count", 10, 100, [][2]int64{{0, 5}, {100, 130}}, 90},
		{"fully covered", 0, 100, [][2]int64{{0, 100}}, 0},
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// record lays spans down in the order a workstation's goroutine finishes
// them: innermost first.
func recordDOP(r *spanRecorder, base time.Duration, traced bool) {
	at := func(d time.Duration) time.Time { return r.epoch.Add(base + d) }
	r.startCycle(traced)
	r.record(kindRPC, "tm/begin", at(1), at(11))
	r.record(kindOp, "begin", at(0), at(12))
	r.record(kindRPC, "tm/checkout", at(21), at(51))
	r.record(kindOp, "checkout", at(20), at(60))
	r.record(kindRPC, "tm/stage", at(71), at(81))
	r.record(kindRPC, "2pc/prepare", at(82), at(102))
	r.record(kindRPC, "2pc/commit", at(105), at(115))
	r.record(kindOp, "checkin", at(70), at(130))
	r.record(kindCycle, "dop", at(0), at(140))
}

func TestSummarizeLinksSpansAndSubtractsChildren(t *testing.T) {
	r := newSpanRecorder(time.Unix(0, 0), 0)
	recordDOP(r, 0, true)
	recordDOP(r, 1000, false) // untraced DOPs leave no spans
	recordDOP(r, 2000, true)
	if len(r.spans) != 18 {
		t.Fatalf("%d spans recorded, want 18 (two traced DOPs of 9)", len(r.spans))
	}
	sum := summarize([]*spanRecorder{r})
	if sum.cycles != 2 || sum.rpcs != 10 {
		t.Fatalf("cycles=%d rpcs=%d, want 2 and 10", sum.cycles, sum.rpcs)
	}
	for op, want := range map[string]time.Duration{
		"begin":    12 - 10, // one rpc of 10
		"checkout": 40 - 30, // one rpc of 30
		"checkin":  60 - 40, // stage 10 + prepare 20 + commit 10
	} {
		s := sum.opSelf[op]
		if s == nil || s.n() != 2 || s.quantile(0.5) != want {
			t.Errorf("self time of %s = %v, want 2 samples of %v", op, s, want)
		}
	}
	if got := sum.rpc["2pc/prepare"].quantile(0.5); got != 20 {
		t.Errorf("2pc/prepare round trip = %v, want 20ns", got)
	}

	// After linking: every rpc hangs under an op, every op under its DOP,
	// and the spans of one DOP share its number.
	parent := linkSpans(r.spans)
	for i, s := range r.spans {
		p := parent[i]
		switch s.kind {
		case kindCycle:
			if p != -1 {
				t.Errorf("span %d: a DOP has parent %d", i, p)
			}
		case kindOp:
			if p < 0 || r.spans[p].kind != kindCycle || r.spans[p].cycle != s.cycle {
				t.Errorf("span %d (%s): parent %d is not its DOP", i, r.names[s.name], p)
			}
		case kindRPC:
			if p < 0 || r.spans[p].kind != kindOp || r.spans[p].cycle != s.cycle {
				t.Errorf("span %d (%s): parent %d is not an op of its DOP", i, r.names[s.name], p)
			}
		}
	}
}

func TestWriteTraceKeepsParentsInsideTheFile(t *testing.T) {
	a := newSpanRecorder(time.Unix(0, 0), 0)
	b := newSpanRecorder(time.Unix(0, 0), 0)
	recordDOP(a, 0, true)
	recordDOP(b, 500, true)
	dir := t.TempDir()
	path, err := writeTrace(dir, "unit", 42, []*spanRecorder{a, b})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload  string
		Seed      int64
		Total     int `json:"total_spans"`
		Truncated bool
		Spans     []spanJSON
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Workload != "unit" || file.Seed != 42 || file.Total != 18 || file.Truncated || len(file.Spans) != 18 {
		t.Fatalf("header %+v with %d spans", file, len(file.Spans))
	}
	for i, s := range file.Spans {
		if s.Kind == "cycle" {
			continue
		}
		if s.Parent < 0 || s.Parent >= len(file.Spans) {
			t.Fatalf("span %d: parent %d outside the file", i, s.Parent)
		}
		p := file.Spans[s.Parent]
		if p.Station != s.Station || p.DOP != s.DOP || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Errorf("span %d %+v does not lie inside its parent %+v", i, s, p)
		}
	}
}
