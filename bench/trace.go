package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span kinds, outermost first: a cycle is one DOP (Begin..Commit), an op is
// one client-TM call inside it, an rpc is one wire round trip inside an op.
const (
	kindCycle uint8 = iota
	kindOp
	kindRPC
)

var kindNames = [...]string{"cycle", "op", "rpc"}

// span is one timed interval on one workstation. Spans of one DOP share the
// cycle number; a span's parent is the tightest span of the same
// workstation that contains it.
type span struct {
	cycle      uint32
	kind       uint8
	name       uint8 // index into spanRecorder.names
	start, end int64 // ns since the recorder's epoch
}

func (s span) dur() int64 { return s.end - s.start }

// spanRecorder keeps one workstation's spans in memory until the run ends.
// Tracing is switched per cycle, so one run holds traced and untraced cycles
// under identical conditions and their difference is the tracing overhead.
type spanRecorder struct {
	epoch time.Time

	mu    sync.Mutex
	on    bool
	cycle uint32
	names []string
	spans []span
}

func newSpanRecorder(epoch time.Time, capacity int) *spanRecorder {
	return &spanRecorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// startCycle opens the next DOP; its spans are kept only when traced.
func (r *spanRecorder) startCycle(traced bool) {
	r.mu.Lock()
	r.cycle++
	r.on = traced
	r.mu.Unlock()
}

func (r *spanRecorder) enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *spanRecorder) record(kind uint8, name string, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return
	}
	id := -1
	for i, n := range r.names {
		if n == name {
			id = i
			break
		}
	}
	if id < 0 {
		id = len(r.names)
		r.names = append(r.names, name)
	}
	r.spans = append(r.spans, span{
		cycle: r.cycle, kind: kind, name: uint8(id),
		start: int64(start.Sub(r.epoch)), end: int64(end.Sub(r.epoch)),
	})
}

// linkSpans orders one workstation's spans outermost-first by start time and
// returns each span's parent index (-1 for none). A workstation runs one
// goroutine, so its spans nest.
func linkSpans(spans []span) []int {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end
		}
		return a.kind < b.kind
	})
	parent := make([]int, len(spans))
	var stack []int
	for i, s := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		parent[i] = -1
		if len(stack) > 0 {
			parent[i] = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return parent
}

// selfTime is a span's duration minus the part of its interval that the
// child intervals cover (children may overlap each other or stick out).
func selfTime(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	covered, edge := int64(0), start
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo < edge {
			lo = edge
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return (end - start) - covered
}

// traceSummary is what the per-layer metrics read off a run's spans.
type traceSummary struct {
	rpc    map[string]*samples // wire method -> round-trip time
	opSelf map[string]*samples // client-TM op -> time not spent in its rpcs
	cycles int
	rpcs   int
}

func summarize(recs []*spanRecorder) traceSummary {
	sum := traceSummary{rpc: map[string]*samples{}, opSelf: map[string]*samples{}}
	get := func(m map[string]*samples, k string) *samples {
		if m[k] == nil {
			m[k] = &samples{}
		}
		return m[k]
	}
	for _, r := range recs {
		parent := linkSpans(r.spans)
		kids := make(map[int][][2]int64)
		for i, s := range r.spans {
			switch s.kind {
			case kindCycle:
				sum.cycles++
			case kindRPC:
				sum.rpcs++
				get(sum.rpc, r.names[s.name]).add(time.Duration(s.dur()))
				if p := parent[i]; p >= 0 && r.spans[p].kind == kindOp {
					kids[p] = append(kids[p], [2]int64{s.start, s.end})
				}
			}
		}
		for i, s := range r.spans {
			if s.kind == kindOp {
				get(sum.opSelf, r.names[s.name]).add(time.Duration(selfTime(s.start, s.end, kids[i])))
			}
		}
	}
	return sum
}

// maxSpansOnDisk bounds the trace file; the summary always reads every span.
const maxSpansOnDisk = 100000

type spanJSON struct {
	Station int    `json:"station"`
	DOP     uint32 `json:"dop"`
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into this file's spans, -1 for a DOP
}

// writeTrace writes the spans (linked by summarize) to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, recs []*spanRecorder) (string, error) {
	var out struct {
		Workload  string     `json:"workload"`
		Seed      int64      `json:"seed"`
		Total     int        `json:"total_spans"`
		Truncated bool       `json:"truncated"`
		Spans     []spanJSON `json:"spans"`
	}
	out.Workload, out.Seed = workload, seed
	for st, r := range recs {
		out.Total += len(r.spans)
		room := maxSpansOnDisk / len(recs)
		if len(r.spans) < room {
			room = len(r.spans)
		}
		part := r.spans[:room]
		parent := linkSpans(part)
		base := len(out.Spans)
		for i, s := range part {
			p := parent[i]
			if p >= 0 {
				p += base
			}
			out.Spans = append(out.Spans, spanJSON{
				Station: st, DOP: s.cycle, Kind: kindNames[s.kind], Name: r.names[s.name],
				StartNs: s.start, EndNs: s.end, Parent: p,
			})
		}
	}
	out.Truncated = len(out.Spans) < out.Total
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
