package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/txn"
	"concord/internal/version"
)

// ReadPathMode selects what one RunCheckoutScaling configuration measures.
type ReadPathMode int

// Read-path measurement modes.
const (
	// ModeServer drives the server-TM checkout path directly (admission,
	// scope check, short S lock, repository read of metadata plus the
	// resident encoding) — the layer the MVCC read index changes.
	ModeServer ReadPathMode = iota + 1
	// ModeE2EHot runs full workstation checkouts over the in-process wire
	// with warm caches (NotModified handshakes, E14 protocol).
	ModeE2EHot
	// ModeE2ECold runs full workstation checkouts with the cache entry
	// dropped after every round, so each checkout transfers the complete
	// payload.
	ModeE2ECold
)

// String names the mode for report rows.
func (m ReadPathMode) String() string {
	switch m {
	case ModeServer:
		return "server"
	case ModeE2EHot:
		return "e2e-hot"
	case ModeE2ECold:
		return "e2e-cold"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ReadScalingResult is the outcome of one RunCheckoutScaling configuration.
type ReadScalingResult struct {
	// Readers is the concurrent reader (workstation) count.
	Readers int
	// Checkouts is the total checkout count across all readers.
	Checkouts int
	// Elapsed is the wall-clock time of the parallel phase.
	Elapsed time.Duration
	// AllocsPerOp is the process-wide heap allocation count per checkout
	// during the parallel phase (runtime.MemStats delta), covering the
	// whole read path the mode exercises.
	AllocsPerOp float64
}

// OpsPerSec reports aggregate checkout throughput.
func (r ReadScalingResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Checkouts) / r.Elapsed.Seconds()
}

// e15RegisterTypes declares the E15 catalog: a part-heavy library DOT so
// payload copies (the cost MVCC removes) are realistically expensive.
func e15RegisterTypes(c *catalog.Catalog) error {
	if err := c.Register(&catalog.DOT{
		Name: "e15cell",
		Attrs: []catalog.AttrDef{
			{Name: "name", Kind: catalog.KindString, Required: true},
			{Name: "data", Kind: catalog.KindString},
		},
	}); err != nil {
		return err
	}
	return c.Register(&catalog.DOT{
		Name:       "e15lib",
		Attrs:      []catalog.AttrDef{{Name: "title", Kind: catalog.KindString, Required: true}},
		Components: []catalog.ComponentDef{{Name: "cells", DOT: "e15cell"}},
	})
}

// e15Parts sizes the shared design object (cells × bytes of payload each):
// big enough that a deep clone is real work, small enough that every
// configuration runs in milliseconds.
const (
	e15Parts     = 96
	e15PartBytes = 48
)

func e15Object(da string) *catalog.Object {
	lib := catalog.NewObject("e15lib").Set("title", catalog.Str(da))
	for i := 0; i < e15Parts; i++ {
		data := make([]byte, e15PartBytes)
		for j := range data {
			data[j] = 'a' + byte((i+j)%26)
		}
		cell := catalog.NewObject("e15cell").
			Set("name", catalog.Str(fmt.Sprintf("c%04d", i))).
			Set("data", catalog.Str(string(data)))
		lib.AddPart("cells", cell)
	}
	return lib
}

// RunCheckoutScaling boots one durable server and n readers, seeds one
// part-heavy version per reader's DA, then has every reader perform `rounds`
// checkouts of its version in parallel through the lock-free, clone-free
// MVCC index. Used by E15 and the read-path benchmarks.
func RunCheckoutScaling(n, rounds int, mode ReadPathMode) (ReadScalingResult, error) {
	res := ReadScalingResult{Readers: n}
	dir, err := os.MkdirTemp("", "concord-e15")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	sys, err := core.NewSystem(core.Options{
		Dir:                  dir,
		RegisterTypes:        e15RegisterTypes,
		VolatileWorkstations: true,
	})
	if err != nil {
		return res, err
	}
	defer sys.Close()

	sites := make([]*site15, n)
	for i := range sites {
		da := fmt.Sprintf("da-%d", i)
		if err := sys.CM().InitDesign(coop.Config{ID: da, DOT: "e15lib", Designer: fmt.Sprintf("designer-%d", i)}); err != nil {
			return res, err
		}
		if err := sys.CM().Start(da); err != nil {
			return res, err
		}
		ws, err := sys.AddWorkstation(fmt.Sprintf("ws-%d", i))
		if err != nil {
			return res, err
		}
		dop, err := ws.Begin("", da)
		if err != nil {
			return res, err
		}
		if err := dop.SetWorkspace(e15Object(da)); err != nil {
			return res, err
		}
		root, err := dop.Checkin(version.StatusWorking, true)
		if err != nil {
			return res, err
		}
		if err := dop.Commit(); err != nil {
			return res, err
		}
		sites[i] = &site15{ws: ws, da: da, dov: root}
	}

	run, err := readLoop(sys, sites, rounds, mode)
	if err != nil {
		return res, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := run(); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.Checkouts = n * rounds
	res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.Checkouts)
	return res, nil
}

// readLoop prepares the parallel checkout phase for the mode and returns a
// closure executing it (so the caller can bracket just the measured region
// with MemStats reads).
func readLoop(sys *core.System, sites []*site15, rounds int, mode ReadPathMode) (func() error, error) {
	switch mode {
	case ModeServer:
		stm := sys.ServerTM()
		for i, s := range sites {
			if err := stm.Begin(fmt.Sprintf("e15-reader-%d", i), s.da); err != nil {
				return nil, err
			}
		}
		return func() error {
			return eachSite(sites, func(i int, s *site15) error {
				reader := fmt.Sprintf("e15-reader-%d", i)
				for r := 0; r < rounds; r++ {
					if _, err := stm.Checkout(reader, s.dov, false); err != nil {
						return fmt.Errorf("%s round %d: %w", s.da, r, err)
					}
				}
				return nil
			})
		}, nil
	case ModeE2EHot, ModeE2ECold:
		dops := make([]*txn.DOP, len(sites))
		for i, s := range sites {
			d, err := s.ws.Begin("", s.da)
			if err != nil {
				return nil, err
			}
			if mode == ModeE2ECold {
				// Forget the bytes the seeding checkin left behind so the
				// first round is a genuine full transfer.
				s.ws.TM().Cache().Drop(s.dov)
			}
			dops[i] = d
		}
		return func() error {
			return eachSite(sites, func(i int, s *site15) error {
				for r := 0; r < rounds; r++ {
					if _, err := dops[i].Checkout(s.dov, false); err != nil {
						return fmt.Errorf("%s round %d: %w", s.da, r, err)
					}
					if mode == ModeE2ECold {
						s.ws.TM().Cache().Drop(s.dov)
					}
				}
				return nil
			})
		}, nil
	default:
		return nil, fmt.Errorf("e15: unknown mode %d", mode)
	}
}

// eachSite runs fn concurrently over all sites and joins the first error.
func eachSite(sites []*site15, fn func(int, *site15) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, len(sites))
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s *site15) {
			defer wg.Done()
			if err := fn(i, s); err != nil {
				errs <- err
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// e15Baseline is one pinned measurement of the pre-MVCC read path.
type e15Baseline struct{ opsPerSec, allocsPerOp float64 }

// e15LockedCloneBaseline pins the pre-MVCC repository read path (repository
// RWMutex + deep payload clone per Get, the original design) per path and reader
// count, as last measured on the reference host before the switch that
// selected it was retired (EXPERIMENTS.md E15, rev 7664ae9a32b1). The
// comparison is settled, so the locked read path no longer ships.
var e15LockedCloneBaseline = map[ReadPathMode]map[int]e15Baseline{
	ModeServer: {
		1: {24926, 395.1}, 2: {25260, 395.1}, 4: {22875, 395.1}, 8: {17213, 395.1}, 16: {18404, 395.1},
	},
	ModeE2EHot: {
		1: {7821, 1677.6}, 2: {7511, 1677.6}, 4: {6830, 1677.7}, 8: {4831, 1677.6}, 16: {4976, 1677.4},
	},
	ModeE2ECold: {
		1: {7280, 1676.7}, 2: {6195, 1676.7}, 4: {6769, 1676.5}, 8: {6605, 1676.3}, 16: {6091, 1676.2},
	},
}

// E15ReadPath measures aggregate checkout throughput of N concurrent readers
// against one server through the lock-free, clone-free MVCC index
// (DESIGN.md §3.6), at the server-TM layer and end-to-end over the wire with
// hot and cold workstation caches, beside the pinned figures of the pre-MVCC
// read path (lock + deep clone per Get, the original design). The paper's Sect. 5.1
// architecture makes checkout the dominant operation of parallel DOP
// processing; this experiment quantifies how far the read path scales with
// readers.
func E15ReadPath() (Report, error) {
	return e15ReadPath([]int{1, 2, 4, 8, 16}, 1500, 120)
}

// e15ReadPath parameterizes E15 so CI can run a reduced configuration.
func e15ReadPath(readerCounts []int, serverRounds, e2eRounds int) (Report, error) {
	rep := Report{
		ID:     "E15",
		Title:  "read-heavy multi-workstation checkout scaling (Sect. 5.1, DESIGN.md §3.6)",
		Header: []string{"path", "readers", "checkouts", "locked+clone ops/s (pinned)", "mvcc ops/s", "speedup", "locked+clone allocs/op (pinned)", "mvcc allocs/op"},
	}
	for _, mode := range []ReadPathMode{ModeServer, ModeE2EHot, ModeE2ECold} {
		rounds := serverRounds
		if mode != ModeServer {
			rounds = e2eRounds
		}
		for _, n := range readerCounts {
			base := e15LockedCloneBaseline[mode][n]
			mvcc, err := RunCheckoutScaling(n, rounds, mode)
			if err != nil {
				return rep, fmt.Errorf("E15 %s mvcc N=%d: %w", mode, n, err)
			}
			rep.Rows = append(rep.Rows, []string{
				mode.String(), d(n), d(mvcc.Checkouts),
				f(base.opsPerSec), f(mvcc.OpsPerSec()),
				fmt.Sprintf("%.2fx", mvcc.OpsPerSec()/base.opsPerSec),
				f(base.allocsPerOp), f(mvcc.AllocsPerOp),
			})
			rep.Metrics = append(rep.Metrics,
				Metric{Name: fmt.Sprintf("checkout_ops_per_sec/path=%s/readers=%d/design=mvcc", mode, n), Value: mvcc.OpsPerSec(), Unit: "ops/s"},
				Metric{Name: fmt.Sprintf("checkout_allocs_per_op/path=%s/readers=%d/design=mvcc", mode, n), Value: mvcc.AllocsPerOp, Unit: "allocs/op"},
			)
		}
	}
	rep.Notes = append(rep.Notes,
		"locked+clone = pre-MVCC read path (repository RWMutex + deep payload clone per Get), the original design; pinned figures (rev 7664ae9a32b1), not re-measured",
		"mvcc = lock-free copy-on-write index, immutable DOV records resident as metadata + canonical encoding (DESIGN.md §3.6)",
		fmt.Sprintf("object: %d parts x %d B (payload the baseline clones on every read)", e15Parts, e15PartBytes),
		"server = server-TM checkout (admission, scope check, S lock, repository read); e2e = full wire checkout with hot (NotModified) or cold (full transfer) workstation cache",
		"allocs/op = process-wide heap allocations per checkout during the parallel phase",
	)
	return rep, nil
}

// site15 is one reader's workstation site in E15.
type site15 struct {
	ws  *core.Workstation
	da  string
	dov version.ID
}
