package experiments

import (
	"fmt"
	"os"

	"concord/internal/baseline"
	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/rpc"
	"concord/internal/sim"
	"concord/internal/vlsi"
)

// E9Cooperation quantifies the paper's central claim (Sects. 1-2): with
// version-based cooperation, N designers sustain concurrent engineering
// where flat ACID serializes and a ConTracts-style system (no AC level)
// blocks dependent designers until whole activities commit.
func E9Cooperation() (Report, error) {
	r := Report{ID: "E9", Title: "cooperation vs. isolation: makespan for N designers (steps=6, dep every 2)"}
	r.Header = []string{"N", "CONCORD", "ConTracts-style", "flat ACID", "speedup vs flat", "CONCORD blocked", "messages"}
	for _, n := range []int{2, 4, 8, 16} {
		w := sim.Workload{Designers: n, Steps: 6, DepEvery: 2, BaseDuration: 10, Jitter: 2, Seed: 42}
		sys, err := core.NewSystem(core.Options{RegisterTypes: sim.RegisterStepTypes})
		if err != nil {
			return r, err
		}
		concord, err := sim.RunCooperative(sys, w)
		sys.Close()
		if err != nil {
			return r, err
		}
		sys2, err := core.NewSystem(core.Options{RegisterTypes: sim.RegisterStepTypes})
		if err != nil {
			return r, err
		}
		ct, err := baseline.RunConTractsStyle(sys2.Repo(), w)
		if err != nil {
			sys2.Close()
			return r, err
		}
		flat, err := baseline.RunFlatACID(sys2.Repo(), w)
		sys2.Close()
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{
			d(n), f(concord.Makespan), f(ct.Makespan), f(flat.Makespan),
			fmt.Sprintf("%.1fx", flat.Makespan/concord.Makespan),
			f(concord.Blocked), d(concord.Messages),
		})
	}
	r.Notes = append(r.Notes,
		"expected shape: CONCORD ≈ flat/N (near-linear), ConTracts-style degrades with dependencies, flat serializes",
		"CONCORD rows execute the full live stack (real DOPs, Evaluate/Propagate/Require)")
	return r, nil
}

// E10CommitProtocols measures the two-phase commit engine and exactly-once
// RPC under message loss (Sects. 5.2, 6): all transactions must commit with
// exactly-once effects; the message overhead grows with the loss rate.
func E10CommitProtocols() (Report, error) {
	r := Report{ID: "E10", Title: "2PC + transactional RPC under message loss"}
	r.Header = []string{"loss prob", "transactions", "committed", "effects (want=tx)", "prepare msgs", "commit msgs", "rpc attempts"}
	const txCount = 40
	for _, loss := range []float64{0, 0.01, 0.05, 0.2} {
		tr := rpc.NewInProc(rpc.FaultPlan{DropRequest: loss, DropResponse: loss, Seed: 7})
		res := &countingResource{}
		part, err := rpc.NewParticipant(res, nil)
		if err != nil {
			return r, err
		}
		if err := tr.Serve("p", rpc.Dedup(part.Handler())); err != nil {
			return r, err
		}
		client := rpc.NewClient(tr, "coord")
		client.Backoff = 0
		client.Retries = 500
		coord, err := rpc.NewCoordinator(client, nil)
		if err != nil {
			return r, err
		}
		committed := 0
		for i := 0; i < txCount; i++ {
			out, err := coord.Commit(fmt.Sprintf("tx-%d", i), []string{"p"})
			if err != nil {
				return r, err
			}
			if out == rpc.OutcomeCommitted {
				committed++
			}
		}
		st := coord.Stats()
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.2f", loss), d(txCount), d(committed), d(res.commits),
			d(st.Prepares), d(st.Commits), d(int(client.Attempts())),
		})
		tr.Close()
	}
	r.Notes = append(r.Notes, "exactly-once: committed effects equal transactions at every loss rate; retries grow with loss")
	return r, nil
}

// countingResource counts committed effects.
type countingResource struct{ commits int }

func (c *countingResource) Prepare(string) (rpc.Vote, error) { return rpc.VoteCommit, nil }
func (c *countingResource) Commit(string) error              { c.commits++; return nil }
func (c *countingResource) Abort(string) error               { return nil }

// E11RecoveryPoints quantifies Sect. 4.3/5.2: recovery points bound the work
// lost in a workstation crash to the interval since the last one, instead of
// rolling a long DOP back to its beginning.
func E11RecoveryPoints() (Report, error) {
	r := Report{ID: "E11", Title: "lost work after workstation crash vs. recovery-point interval"}
	r.Header = []string{"RP interval (work units)", "units done at crash", "units recovered", "units lost"}
	// 23 units: the crash lands mid-interval so the tail work is lost.
	const unitsDone = 23
	for _, interval := range []int{1, 2, 5, 10, unitsDone + 1} {
		dir, err := os.MkdirTemp("", "concord-e11")
		if err != nil {
			return r, err
		}
		sys, err := core.NewSystem(core.Options{Dir: dir, RegisterTypes: vlsi.RegisterCatalog})
		if err != nil {
			os.RemoveAll(dir)
			return r, err
		}
		if err := sys.CM().InitDesign(coop.Config{ID: "da1", DOT: vlsi.DOTFloorplan, Designer: "a"}); err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		if err := sys.CM().Start("da1"); err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		ws, err := sys.AddWorkstation("ws1")
		if err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		dop, err := ws.Begin("long-dop", "da1")
		if err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).Set("cell", catalog.Str("O")).Set("area", catalog.Float(1))
		if err := dop.SetWorkspace(obj); err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		// Long tool run: each unit advances the workspace; every
		// interval-th unit takes a recovery point (Save).
		for u := 1; u <= unitsDone; u++ {
			dop.Workspace().Set("step", catalog.Int(int64(u)))
			if u%interval == 0 {
				if err := dop.Save(fmt.Sprintf("rp-%d", u)); err != nil {
					sys.Close()
					os.RemoveAll(dir)
					return r, err
				}
			}
		}
		if err := sys.CrashWorkstation("ws1"); err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		ws2, err := sys.AddWorkstation("ws1")
		if err != nil {
			sys.Close()
			os.RemoveAll(dir)
			return r, err
		}
		recoveredUnits := 0
		if rec := ws2.RecoveredDOPs(); len(rec) == 1 && rec[0].Workspace() != nil {
			recoveredUnits = int(catalog.NumAttr(rec[0].Workspace(), "step"))
			if recoveredUnits < 0 || recoveredUnits > unitsDone {
				recoveredUnits = 0
			}
		}
		label := d(interval)
		if interval > unitsDone {
			label = "none (whole-DOP rollback)"
		}
		r.Rows = append(r.Rows, []string{label, d(unitsDone), d(recoveredUnits), d(unitsDone - recoveredUnits)})
		sys.Close()
		os.RemoveAll(dir)
	}
	r.Notes = append(r.Notes, "lost work equals the interval since the last recovery point; without recovery points the whole DOP is lost")
	return r, nil
}

// All runs every experiment in order.
func All() ([]Report, error) {
	runs := []func() (Report, error){
		E1LevelStack, E2DesignPlane, E3ChipPlanning, E4DAHierarchy,
		E5Delegation, E6Scripts, E7StateGraph, E8FailureMatrix,
		E9Cooperation, E10CommitProtocols, E11RecoveryPoints,
		E12MultiWorkstation,
	}
	out := make([]Report, 0, len(runs))
	for _, run := range runs {
		rep, err := run()
		if err != nil {
			return out, fmt.Errorf("%s: %w", rep.ID, err)
		}
		out = append(out, rep)
	}
	return out, nil
}
