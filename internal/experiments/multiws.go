package experiments

import (
	"fmt"
	"os"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// MultiWorkstationResult is the outcome of one RunMultiWorkstation
// configuration.
type MultiWorkstationResult struct {
	// Workstations is the concurrent workstation count.
	Workstations int
	// Checkins is the total number of committed checkin transactions.
	Checkins int
	// Elapsed is the wall-clock time of the parallel phase.
	Elapsed time.Duration
	// WALAppends and WALBatches are the server repository log's counters;
	// appends/batches is the group-commit factor the run achieved.
	WALAppends, WALBatches uint64
}

// OpsPerSec reports aggregate checkin throughput.
func (r MultiWorkstationResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Checkins) / r.Elapsed.Seconds()
}

// RunMultiWorkstation boots one durable server and n workstations, then has
// every workstation run `rounds` checkout → modify → checkin cycles (each a
// full DOP with 2PC) against its own DA, all in parallel. Used by E12 and the
// concurrency benchmarks.
func RunMultiWorkstation(n, rounds int) (MultiWorkstationResult, error) {
	res := MultiWorkstationResult{Workstations: n}
	dir, err := os.MkdirTemp("", "concord-e12")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	sys, err := core.NewSystem(core.Options{
		Dir:           dir,
		RegisterTypes: vlsi.RegisterCatalog,
		// Only the shared server core is under test; workstation-local
		// recovery logs would add private fsyncs that obscure it.
		VolatileWorkstations: true,
	})
	if err != nil {
		return res, err
	}
	defer sys.Close()

	type site struct {
		ws   *core.Workstation
		da   string
		last version.ID
	}
	sites := make([]*site, n)
	for i := range sites {
		da := fmt.Sprintf("da-%d", i)
		if err := sys.CM().InitDesign(coop.Config{ID: da, DOT: vlsi.DOTFloorplan, Designer: fmt.Sprintf("designer-%d", i)}); err != nil {
			return res, err
		}
		if err := sys.CM().Start(da); err != nil {
			return res, err
		}
		ws, err := sys.AddWorkstation(fmt.Sprintf("ws-%d", i))
		if err != nil {
			return res, err
		}
		// Seed the derivation graph with a root version to check out from.
		dop, err := ws.Begin("", da)
		if err != nil {
			return res, err
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).
			Set("cell", catalog.Str(da)).
			Set("area", catalog.Float(100))
		if err := dop.SetWorkspace(obj); err != nil {
			return res, err
		}
		root, err := dop.Checkin(version.StatusWorking, true)
		if err != nil {
			return res, err
		}
		if err := dop.Commit(); err != nil {
			return res, err
		}
		sites[i] = &site{ws: ws, da: da, last: root}
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for _, s := range sites {
		wg.Add(1)
		go func(s *site) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				dop, err := s.ws.Begin("", s.da)
				if err != nil {
					errs <- fmt.Errorf("%s round %d begin: %w", s.da, r, err)
					return
				}
				obj, err := dop.Checkout(s.last, true)
				if err != nil {
					errs <- fmt.Errorf("%s round %d checkout: %w", s.da, r, err)
					return
				}
				obj.Set("area", catalog.Float(100-float64(r)))
				if err := dop.SetWorkspace(obj); err != nil {
					errs <- err
					return
				}
				id, err := dop.Checkin(version.StatusWorking, false)
				if err != nil {
					errs <- fmt.Errorf("%s round %d checkin: %w", s.da, r, err)
					return
				}
				if err := dop.Commit(); err != nil {
					errs <- fmt.Errorf("%s round %d commit: %w", s.da, r, err)
					return
				}
				s.last = id
			}
		}(s)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.WALAppends, res.WALBatches, _ = sys.Repo().Log().Stats()
	close(errs)
	if err := <-errs; err != nil {
		return res, err
	}
	res.Checkins = n * rounds
	return res, nil
}

// e12SerializedBaseline pins the seed's fully serialized server core (global
// WAL mutex with one fsync per record, single-shard lock table, global CM
// mutex) as measured in PR 1 on the reference host, in checkins/s per
// workstation count (EXPERIMENTS.md E12). The comparison is settled, so the
// serialized core no longer ships as a switch.
var e12SerializedBaseline = map[int]float64{1: 1536, 2: 1551, 4: 1559, 8: 1737}

// E12MultiWorkstation measures aggregate checkout/modify/checkin throughput
// of N concurrent workstations against one server-TM (group-commit WAL,
// sharded lock manager, per-DA CM locking) and prints it beside the pinned
// throughput of the seed's serialized core. The paper's Sect. 5.1
// workstation/server architecture explicitly targets many designers working
// in parallel; this experiment quantifies how far the server core scales with
// them.
func E12MultiWorkstation() (Report, error) {
	rep := Report{
		ID:     "E12",
		Title:  "multi-workstation checkout/checkin throughput (Sect. 5.1/5.2)",
		Header: []string{"workstations", "checkins", "serialized ops/s (PR 1)", "concurrent ops/s", "speedup"},
	}
	const rounds = 20
	for _, n := range []int{1, 2, 4, 8} {
		con, err := RunMultiWorkstation(n, rounds)
		if err != nil {
			return rep, fmt.Errorf("E12 N=%d: %w", n, err)
		}
		ser := e12SerializedBaseline[n]
		rep.Rows = append(rep.Rows, []string{
			d(n), d(con.Checkins), f(ser), f(con.OpsPerSec()),
			fmt.Sprintf("%.2fx", con.OpsPerSec()/ser),
		})
	}
	rep.Notes = append(rep.Notes,
		"serialized = single-shard lock table + one fsync per WAL record (the seed design); pinned PR-1 figures, not re-measured",
		"concurrent = sharded lock manager + group-commit WAL + per-DA CM locking",
		"each checkin is a full DOP: Begin, checkout(derive), modify, 2PC checkin, commit",
	)
	return rep, nil
}
