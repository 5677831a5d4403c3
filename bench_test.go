package concord

// One benchmark per experiment of DESIGN.md §6: E1-E8 regenerate the paper's
// figures, E9-E11 quantify its qualitative claims. Each bench times a full
// experiment run (the reproduction artifact), plus micro-benchmarks for the
// hot substrate paths beneath them.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/baseline"
	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/experiments"
	"concord/internal/lock"
	"concord/internal/rpc"
	"concord/internal/sim"
	"concord/internal/version"
	"concord/internal/vlsi"
	"concord/internal/wal"
)

func benchReport(b *testing.B, run func() (experiments.Report, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := run()
		if err != nil {
			b.Fatalf("%s: %v", rep.ID, err)
		}
		if len(rep.Rows) == 0 {
			b.Fatalf("%s: empty report", rep.ID)
		}
	}
}

func BenchmarkFig1LevelStack(b *testing.B)  { benchReport(b, experiments.E1LevelStack) }
func BenchmarkFig2DesignPlane(b *testing.B) { benchReport(b, experiments.E2DesignPlane) }
func BenchmarkFig3ChipPlanning(b *testing.B) {
	benchReport(b, experiments.E3ChipPlanning)
}
func BenchmarkFig4DAHierarchy(b *testing.B) { benchReport(b, experiments.E4DAHierarchy) }
func BenchmarkFig5Delegation(b *testing.B)  { benchReport(b, experiments.E5Delegation) }
func BenchmarkFig6Scripts(b *testing.B)     { benchReport(b, experiments.E6Scripts) }
func BenchmarkFig7StateGraph(b *testing.B)  { benchReport(b, experiments.E7StateGraph) }
func BenchmarkFig8FailureMatrix(b *testing.B) {
	benchReport(b, experiments.E8FailureMatrix)
}
func BenchmarkE9CooperationVsIsolation(b *testing.B) {
	benchReport(b, experiments.E9Cooperation)
}
func BenchmarkE10CommitProtocols(b *testing.B) {
	benchReport(b, experiments.E10CommitProtocols)
}
func BenchmarkE11RecoveryPoints(b *testing.B) {
	benchReport(b, experiments.E11RecoveryPoints)
}

// --- E9 parameter sweep as sub-benchmarks (makespan reported as metric). ---

func BenchmarkE9Sweep(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		w := sim.Workload{Designers: n, Steps: 6, DepEvery: 2, BaseDuration: 10, Jitter: 2, Seed: 42}
		b.Run(fmt.Sprintf("concord/N=%d", n), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Options{RegisterTypes: sim.RegisterStepTypes})
				if err != nil {
					b.Fatal(err)
				}
				m, err := sim.RunCooperative(sys, w)
				sys.Close()
				if err != nil {
					b.Fatal(err)
				}
				makespan = m.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
		b.Run(fmt.Sprintf("flatacid/N=%d", n), func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				sys, err := core.NewSystem(core.Options{RegisterTypes: sim.RegisterStepTypes})
				if err != nil {
					b.Fatal(err)
				}
				m, err := baseline.RunFlatACID(sys.Repo(), w)
				sys.Close()
				if err != nil {
					b.Fatal(err)
				}
				makespan = m.Makespan
			}
			b.ReportMetric(makespan, "makespan")
		})
	}
}

// --- Concurrency benchmarks (DESIGN.md §6, E12). ---------------------------
//
// These pairs quantify the server-core concurrency work: group-commit WAL vs
// one fsync per append, sharded vs single-shard lock table, and the
// end-to-end multi-workstation scenario.

// BenchmarkWALAppendConcurrent drives parallel appenders through a forced
// (synced) log, comparing group commit against the serialized baseline.
// The group-commit variant amortizes each fsync over every concurrent
// appender; the serial variant pays one fsync per record.
func BenchmarkWALAppendConcurrent(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noGroup bool
	}{{"group-commit", false}, {"serialized", true}} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := wal.Open(filepath.Join(b.TempDir(), "bench.wal"),
				wal.Options{SyncOnAppend: true, NoGroupCommit: mode.noGroup})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := make([]byte, 256)
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(1, "bench", payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			appends, batches, _ := l.Stats()
			if batches > 0 {
				b.ReportMetric(float64(appends)/float64(batches), "appends/fsync")
			}
		})
	}
}

// BenchmarkLockManagerConcurrent compares the sharded lock table against a
// single-shard (seed-design) table under parallel acquire/release traffic on
// disjoint resources — the multi-workstation pattern where designers work on
// different DOVs.
func BenchmarkLockManagerConcurrent(b *testing.B) {
	for _, shards := range []int{1, lock.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m := lock.NewManagerWithShards(shards)
			var id atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				owner := fmt.Sprintf("dop-%d", id.Add(1))
				i := 0
				for pb.Next() {
					res := fmt.Sprintf("dov/%s/%d", owner, i%32)
					if err := m.Acquire(owner, res, lock.X, time.Second); err != nil {
						b.Error(err)
						return
					}
					if err := m.Release(owner, res); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkE12MultiWorkstation runs the E12 load scenario at 8 workstations,
// reporting aggregate checkin throughput.
func BenchmarkE12MultiWorkstation(b *testing.B) {
	var ops float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMultiWorkstation(8, 10)
		if err != nil {
			b.Fatal(err)
		}
		ops = res.OpsPerSec()
	}
	b.ReportMetric(ops, "checkins/s")
}

// BenchmarkE13Restart times restart (repo.Open) after an 8k-operation churn
// history, with and without the checkpoint subsystem, reporting the on-disk
// log footprint alongside. The repo-level BenchmarkRestartAfterChurn in
// internal/repo drills into the same pair at a larger history.
func BenchmarkE13Restart(b *testing.B) {
	for _, mode := range []struct {
		name      string
		ckptEvery int
	}{{"full-replay", 0}, {"checkpointed", 4096}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunRestart(8000, mode.ckptEvery)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Reopen.Microseconds()), "restart-us")
				b.ReportMetric(float64(res.DiskBytes)/1024, "disk-KiB")
			}
		})
	}
}

// BenchmarkE15ReadPath runs the E15 server-side checkout scaling scenario at
// 8 readers for both read-path designs, reporting aggregate checkout
// throughput and the per-checkout allocation footprint.
func BenchmarkE15ReadPath(b *testing.B) {
	for _, mode := range []struct {
		name       string
		serialized bool
	}{{"locked-clone", true}, {"mvcc", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var res experiments.ReadScalingResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.RunCheckoutScaling(mode.serialized, 8, 500, experiments.ModeServer)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.OpsPerSec(), "checkouts/s")
			b.ReportMetric(res.AllocsPerOp, "allocs/checkout")
		})
	}
}

// --- Substrate micro-benchmarks. -------------------------------------------

// BenchmarkE14CacheDelta times the full E14 cycle (checkin, cold checkout,
// cached re-checkout, delta checkin, delta checkout) over a ~128 KiB object
// and reports the wire-byte metrics alongside.
func BenchmarkE14CacheDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCacheDelta(256, 2, 480)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NotModifiedBytes), "NM-bytes")
		b.ReportMetric(float64(res.CheckinDeltaBytes), "ckinΔ-bytes")
		b.ReportMetric(float64(res.CachedLatency.Microseconds()), "cached-checkout-us")
		b.ReportMetric(float64(res.ColdLatency.Microseconds()), "cold-checkout-us")
	}
}

func BenchmarkDOPRoundTrip(b *testing.B) {
	sys, err := core.NewSystem(core.Options{RegisterTypes: vlsi.RegisterCatalog})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	if err := sys.CM().InitDesign(coop.Config{ID: "da1", DOT: vlsi.DOTFloorplan, Designer: "a"}); err != nil {
		b.Fatal(err)
	}
	if err := sys.CM().Start("da1"); err != nil {
		b.Fatal(err)
	}
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dop, err := ws.Begin("", "da1")
		if err != nil {
			b.Fatal(err)
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).
			Set("cell", catalog.Str("O")).
			Set("area", catalog.Float(50))
		if err := dop.SetWorkspace(obj); err != nil {
			b.Fatal(err)
		}
		if _, err := dop.Checkin(version.StatusWorking, true); err != nil {
			b.Fatal(err)
		}
		if err := dop.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChipPlannerToolbox(b *testing.B) {
	cell := vlsi.GenerateHierarchy(7, "chip", 8, 1)
	shapes := vlsi.ShapesForChildren(cell, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlsi.PlanChip(cell.Netlist, vlsi.Interface{Cell: "chip"}, shapes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoPhaseCommit(b *testing.B) {
	tr := rpc.NewInProc(rpc.FaultPlan{})
	defer tr.Close()
	res := &benchResource{}
	part, err := rpc.NewParticipant(res, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Serve("p", rpc.Dedup(part.Handler())); err != nil {
		b.Fatal(err)
	}
	client := rpc.NewClient(tr, "coord")
	client.Backoff = 0
	coord, err := rpc.NewCoordinator(client, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := coord.Commit(fmt.Sprintf("tx-%d", i), []string{"p"})
		if err != nil || out != rpc.OutcomeCommitted {
			b.Fatalf("outcome %s, %v", out, err)
		}
	}
}

type benchResource struct{}

func (benchResource) Prepare(string) (rpc.Vote, error) { return rpc.VoteCommit, nil }
func (benchResource) Commit(string) error              { return nil }
func (benchResource) Abort(string) error               { return nil }

func BenchmarkCooperationOps(b *testing.B) {
	sys, err := core.NewSystem(core.Options{RegisterTypes: vlsi.RegisterCatalog})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	cm := sys.CM()
	if err := cm.InitDesign(coop.Config{ID: "root", DOT: vlsi.DOTChip, Designer: "a"}); err != nil {
		b.Fatal(err)
	}
	if err := cm.Start("root"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("sub-%d", i)
		if err := cm.CreateSubDA("root", coop.Config{ID: id, DOT: vlsi.DOTCell, Designer: "b"}); err != nil {
			b.Fatal(err)
		}
		if err := cm.Start(id); err != nil {
			b.Fatal(err)
		}
		if err := cm.TerminateSubDA("root", id); err != nil {
			b.Fatal(err)
		}
	}
}
