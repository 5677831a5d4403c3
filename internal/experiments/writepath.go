package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/repo"
	"concord/internal/version"
)

// WriteScalingResult is the outcome of one RunCheckinScaling configuration.
type WriteScalingResult struct {
	// Writers is the concurrent writer (design area) count.
	Writers int
	// Checkins is the total checkin count across all writers.
	Checkins int
	// Elapsed is the wall-clock time of the parallel phase.
	Elapsed time.Duration
	// Appends/Batches/Syncs are the repository WAL counters over the
	// measured phase; Appends/Batches is the achieved group-commit factor.
	Appends, Batches, Syncs uint64
}

// OpsPerSec reports aggregate checkin throughput.
func (r WriteScalingResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Checkins) / r.Elapsed.Seconds()
}

// GroupFactor reports how many appends shared one commit batch on average.
func (r WriteScalingResult) GroupFactor() float64 {
	if r.Batches == 0 {
		return 0
	}
	return float64(r.Appends) / float64(r.Batches)
}

// e16RegisterTypes declares the E16 catalog: a module DOT with enough parts
// that record encode/decode is real work per checkin, the regime where the
// critical-section length (what per-DA sharding shrinks) matters.
func e16RegisterTypes(c *catalog.Catalog) error {
	if err := c.Register(&catalog.DOT{
		Name: "e16cell",
		Attrs: []catalog.AttrDef{
			{Name: "name", Kind: catalog.KindString, Required: true},
			{Name: "data", Kind: catalog.KindString},
		},
	}); err != nil {
		return err
	}
	return c.Register(&catalog.DOT{
		Name:       "e16mod",
		Attrs:      []catalog.AttrDef{{Name: "title", Kind: catalog.KindString, Required: true}},
		Components: []catalog.ComponentDef{{Name: "cells", DOT: "e16cell"}},
	})
}

// e16Parts sizes each checked-in object (cells × payload bytes per cell).
const (
	e16Parts     = 12
	e16PartBytes = 24
)

func e16Object(tag string, salt int) *catalog.Object {
	mod := catalog.NewObject("e16mod").Set("title", catalog.Str(tag))
	for i := 0; i < e16Parts; i++ {
		data := make([]byte, e16PartBytes)
		for j := range data {
			data[j] = 'a' + byte((i+j+salt)%26)
		}
		cell := catalog.NewObject("e16cell").
			Set("name", catalog.Str(fmt.Sprintf("c%03d", i))).
			Set("data", catalog.Str(string(data)))
		mod.AddPart("cells", cell)
	}
	return mod
}

// RunCheckinScaling opens one durable repository and has n concurrent
// writers — one per design area — each perform `rounds` chained checkins
// into its own derivation graph, with forced log writes (Sync), through the
// §3.7 sharded pipeline: per-DA write locks, reservation under the shard
// lock, durability waits shared through group commit. It measures aggregate
// checkin throughput of the parallel phase and the group-commit factor.
// Used by E16 and the write-path benchmarks.
func RunCheckinScaling(n, rounds int) (WriteScalingResult, error) {
	res := WriteScalingResult{Writers: n}
	dir, err := os.MkdirTemp("", "concord-e16")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cat := catalog.New()
	if err := e16RegisterTypes(cat); err != nil {
		return res, err
	}
	r, err := repo.Open(cat, repo.Options{Dir: dir, Sync: true})
	if err != nil {
		return res, err
	}
	defer r.Close()
	roots := make([]version.ID, n)
	for i := 0; i < n; i++ {
		da := fmt.Sprintf("da-%d", i)
		if err := r.CreateGraph(da); err != nil {
			return res, err
		}
		roots[i] = version.ID(fmt.Sprintf("%s/root", da))
		root := &version.DOV{
			ID: roots[i], DOT: "e16mod", DA: da,
			Object: e16Object(da, 0), Status: version.StatusWorking,
		}
		if err := r.Checkin(root, true); err != nil {
			return res, err
		}
	}
	// Prebuild every version outside the timed phase: the experiment
	// measures the repository write path, not the synthetic object builder
	// (real workstations ship objects they already hold).
	vs := make([][]*version.DOV, n)
	for i := 0; i < n; i++ {
		da := fmt.Sprintf("da-%d", i)
		vs[i] = make([]*version.DOV, rounds)
		prev := roots[i]
		for j := 0; j < rounds; j++ {
			id := version.ID(fmt.Sprintf("%s/v%05d", da, j))
			vs[i][j] = &version.DOV{
				ID: id, DOT: "e16mod", DA: da, Parents: []version.ID{prev},
				Object: e16Object(da, j), Status: version.StatusWorking,
			}
			prev = id
		}
	}
	a0, b0, s0 := r.LogStats()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j, v := range vs[w] {
				if err := r.Checkin(v, false); err != nil {
					errs <- fmt.Errorf("da-%d round %d: %w", w, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return res, err
	}
	a1, b1, s1 := r.LogStats()
	res.Checkins = n * rounds
	res.Appends, res.Batches, res.Syncs = a1-a0, b1-b0, s1-s0
	return res, nil
}

// ReplayResult is the outcome of one RunReplayComparison.
type ReplayResult struct {
	// History is the number of DOV-insert records replayed.
	History int
	// Serial is the best repo.Open latency with record-at-a-time replay.
	Serial time.Duration
	// Pipelined is the best repo.Open latency with the §3.7 pipelined
	// replay (buffered segment streaming + decode workers).
	Pipelined time.Duration
}

// Speedup reports serial/pipelined.
func (r ReplayResult) Speedup() float64 {
	if r.Pipelined <= 0 {
		return 0
	}
	return float64(r.Serial) / float64(r.Pipelined)
}

// e16ReplayDAs spreads the replay history over several graphs, matching the
// multi-DA regime the sharded write path produces.
const e16ReplayDAs = 8

// RunReplayComparison builds a repository whose log holds `history` checkins
// (no checkpoint, so restart replays everything), then measures the restart
// latency of both replay modes — record-at-a-time serial replay vs the
// pipelined replay that streams segments through a large read buffer and
// decodes DOV payloads on a worker pool. The Open-time validation scan is
// buffered in both. Each mode is opened `tries` times
// and the best run is kept (page cache and scheduler noise dominate the
// tail on shared runners).
func RunReplayComparison(history, tries int) (ReplayResult, error) {
	res := ReplayResult{History: history}
	dir, err := os.MkdirTemp("", "concord-e16r")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	cat := catalog.New()
	if err := e16RegisterTypes(cat); err != nil {
		return res, err
	}
	// Build without forced writes: replay cost is what is measured, and the
	// records are identical either way.
	r, err := repo.Open(cat, repo.Options{Dir: dir})
	if err != nil {
		return res, err
	}
	prev := make([]version.ID, e16ReplayDAs)
	for i := 0; i < e16ReplayDAs; i++ {
		if err := r.CreateGraph(fmt.Sprintf("da-%d", i)); err != nil {
			r.Close()
			return res, err
		}
	}
	for j := 0; j < history; j++ {
		w := j % e16ReplayDAs
		da := fmt.Sprintf("da-%d", w)
		id := version.ID(fmt.Sprintf("%s/v%06d", da, j))
		v := &version.DOV{
			ID: id, DOT: "e16mod", DA: da,
			Object: e16Object(da, j), Status: version.StatusWorking,
		}
		if prev[w] != "" {
			v.Parents = []version.ID{prev[w]}
		}
		if err := r.Checkin(v, prev[w] == ""); err != nil {
			r.Close()
			return res, err
		}
		prev[w] = id
	}
	if err := r.Close(); err != nil {
		return res, err
	}

	reopen := func(opts repo.Options) (time.Duration, error) {
		opts.Dir = dir
		runtime.GC() // level the heap between runs; 64k DOVs churn it
		start := time.Now()
		r2, err := repo.Open(cat, opts)
		el := time.Since(start)
		if err != nil {
			return 0, err
		}
		if got := r2.DOVCount(); got != history {
			r2.Close()
			return 0, fmt.Errorf("replay recovered %d DOVs, want %d", got, history)
		}
		r2.Close()
		return el, nil
	}
	// Interleave the modes and keep each one's best run: measuring one mode
	// wholly before the other would hand the later one a systematically
	// warmer page cache.
	for i := 0; i < tries; i++ {
		s, err := reopen(repo.Options{SerialReplay: true})
		if err != nil {
			return res, fmt.Errorf("serial replay: %w", err)
		}
		p, err := reopen(repo.Options{})
		if err != nil {
			return res, fmt.Errorf("pipelined replay: %w", err)
		}
		if res.Serial == 0 || s < res.Serial {
			res.Serial = s
		}
		if res.Pipelined == 0 || p < res.Pipelined {
			res.Pipelined = p
		}
	}
	return res, nil
}

// e16SerializedBaseline pins the fully serial pre-concurrency write path
// (one global repository lock held across each forced log write) in
// checkins/s per writer count, as recorded in EXPERIMENTS.md E16 when the
// sharded pipeline landed (rev f54c69981e92, single-CPU host). The
// comparison is settled, so the serial write path no longer ships.
var e16SerializedBaseline = map[int]float64{1: 7486, 2: 7300, 4: 7098, 8: 6822, 16: 5835}

// E16WritePath measures the concurrent write path (DESIGN.md §3.7): the
// aggregate checkin throughput of N writer DAs against one durable server
// repository through the sharded pipeline (per-DA write locks +
// group-committed appends), beside the pinned figures of the fully serial
// pre-concurrency write path; and the cold-restart
// replay latency of a 64k-checkin history, comparing record-at-a-time
// serial replay with the pipelined replay. The paper's Sect. 5.1/5.2
// processing model makes checkin the write-side bottleneck of parallel DOP
// processing, and Fig. 8 assumes the repository restarts quickly — this
// experiment quantifies both after the write side got the E15 treatment.
func E16WritePath() (Report, error) {
	return e16WritePath([]int{1, 2, 4, 8, 16}, 400, 65536, 2)
}

// e16WritePath parameterizes E16 so CI can run a reduced configuration.
func e16WritePath(writerCounts []int, rounds, history, tries int) (Report, error) {
	rep := Report{
		ID:     "E16",
		Title:  "concurrent write path: multi-DA checkin scaling and pipelined replay (Sect. 5.1/5.2, DESIGN.md §3.7)",
		Header: []string{"writers", "checkins", "serialized ops/s (pinned)", "sharded ops/s", "speedup", "sharded group factor"},
	}
	for _, n := range writerCounts {
		shard, err := RunCheckinScaling(n, rounds)
		if err != nil {
			return rep, fmt.Errorf("E16 sharded N=%d: %w", n, err)
		}
		base := e16SerializedBaseline[n]
		rep.Rows = append(rep.Rows, []string{
			d(n), d(shard.Checkins),
			f(base), f(shard.OpsPerSec()),
			fmt.Sprintf("%.2fx", shard.OpsPerSec()/base),
			fmt.Sprintf("%.1f", shard.GroupFactor()),
		})
	}
	rr, err := RunReplayComparison(history, tries)
	if err != nil {
		return rep, fmt.Errorf("E16 replay: %w", err)
	}
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprintf("replay %dk ops", rr.History/1024), d(rr.History),
		fmt.Sprintf("%.0f ms", rr.Serial.Seconds()*1000),
		fmt.Sprintf("%.0f ms", rr.Pipelined.Seconds()*1000),
		fmt.Sprintf("%.2fx", rr.Speedup()),
		"-",
	})
	rep.Notes = append(rep.Notes,
		"serialized = one global repository lock held across each forced log write, the fully serial pre-concurrency write path; pinned figures (rev f54c69981e92, single-CPU host), not re-measured",
		"sharded = per-DA write locks, WAL reservation under the shard lock, durability waits shared via group commit (DESIGN.md §3.7)",
		fmt.Sprintf("object: %d parts x %d B; every checkin is a forced log write (Sync)", e16Parts, e16PartBytes),
		"group factor = appends per commit batch achieved by concurrent writers (1.0 means every record paid its own fsync)",
		"replay rows compare record-at-a-time serial replay with the pipelined replay (1 MiB buffered segment streaming + DOV decode workers + in-LSN-order apply); the Open-time validation scan is buffered in both, so the gap is the replay pass alone",
	)
	return rep, nil
}
