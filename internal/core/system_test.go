package core

import (
	"errors"
	"testing"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/feature"
	"concord/internal/script"
	"concord/internal/txn"
	"concord/internal/version"
	"concord/internal/vlsi"
)

func newSystem(t *testing.T, dir string) *System {
	t.Helper()
	sys, err := NewSystem(Options{Dir: dir, RegisterTypes: vlsi.RegisterCatalog})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func areaSpec(max float64) *feature.Spec {
	return feature.MustSpec(feature.Range("area-limit", "area", 0, max))
}

// startDA initializes and starts a top-level DA.
func startDA(t *testing.T, sys *System, id string, spec *feature.Spec) {
	t.Helper()
	if err := sys.CM().InitDesign(coop.Config{ID: id, DOT: vlsi.DOTFloorplan, Spec: spec, Designer: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CM().Start(id); err != nil {
		t.Fatal(err)
	}
}

// planOnce runs a full DOP: derive a floorplan version of the given area.
func planOnce(t *testing.T, ws *Workstation, da string, area float64, parent version.ID) version.ID {
	t.Helper()
	dop, err := ws.Begin("", da)
	if err != nil {
		t.Fatal(err)
	}
	root := parent == ""
	if !root {
		if _, err := dop.Checkout(parent, false); err != nil {
			t.Fatal(err)
		}
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str("O")).
		Set("area", catalog.Float(area))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	id, err := dop.Checkin(version.StatusWorking, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestEndToEndSingleDA(t *testing.T) {
	sys := newSystem(t, "")
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := planOnce(t, ws, "da1", 150, "")
	q, err := sys.CM().Evaluate("da1", v0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Final() {
		t.Fatal("150 area should not be final under limit 100")
	}
	v1 := planOnce(t, ws, "da1", 80, v0)
	q, err = sys.CM().Evaluate("da1", v1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Final() {
		t.Fatalf("80 area should be final: %+v", q)
	}
	g, err := sys.Repo().Graph("da1")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.IsAncestor(v0, v1)
	if err != nil || !ok {
		t.Fatalf("derivation lost: %t, %v", ok, err)
	}
}

func TestWorkstationCrashRecoveryThroughSystem(t *testing.T) {
	dir := t.TempDir()
	sys := newSystem(t, dir)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := planOnce(t, ws, "da1", 150, "")

	// A DOP in flight: checkout + workspace, then the workstation dies.
	dop, err := ws.Begin("dop-x", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(90))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Save("progress"); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashWorkstation("ws1"); err != nil {
		t.Fatal(err)
	}

	// Restart: the DOP context is recovered at the savepoint.
	ws2, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	rec := ws2.RecoveredDOPs()
	if len(rec) != 1 || rec[0].ID() != "dop-x" {
		t.Fatalf("recovered = %v", rec)
	}
	rdop := rec[0]
	if got := catalog.NumAttr(rdop.Workspace(), "area"); got != 90 {
		t.Fatalf("workspace area = %g", got)
	}
	newID, err := rdop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdop.Commit(); err != nil {
		t.Fatal(err)
	}
	q, err := sys.CM().Evaluate("da1", newID)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Final() {
		t.Fatal("recovered DOP result not final")
	}
}

func TestServerCrashRecoveryThroughSystem(t *testing.T) {
	dir := t.TempDir()
	sys := newSystem(t, dir)
	startDA(t, sys, "root", areaSpec(1000))
	if err := sys.CM().CreateSubDA("root", coop.Config{ID: "sub", DOT: vlsi.DOTFloorplan, Spec: areaSpec(100), Designer: "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CM().Start("sub"); err != nil {
		t.Fatal(err)
	}
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := planOnce(t, ws, "sub", 80, "")
	if _, err := sys.CM().Evaluate("sub", v0); err != nil {
		t.Fatal(err)
	}

	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	// While down, DOP begin fails (server unreachable).
	if _, err := ws.Begin("", "sub"); err == nil {
		t.Fatal("begin succeeded against crashed server")
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	// DA hierarchy and version state recovered.
	da, err := sys.CM().Get("sub")
	if err != nil {
		t.Fatal(err)
	}
	if da.State != coop.StateActive || da.Parent != "root" {
		t.Fatalf("sub after recovery = %+v", da)
	}
	v, err := sys.Repo().Get(v0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != version.StatusFinal {
		t.Fatalf("status after recovery = %s", v.Status)
	}
	// The workstation continues: derive from the recovered version.
	v1 := planOnce(t, ws, "sub", 60, v0)
	if _, err := sys.Repo().Get(v1); err != nil {
		t.Fatal(err)
	}
	// Cooperation proceeds: ready-to-commit and termination.
	if err := sys.CM().SubDAReadyToCommit("sub"); err != nil {
		t.Fatal(err)
	}
	if err := sys.CM().TerminateSubDA("root", "sub"); err != nil {
		t.Fatal(err)
	}
}

func TestCrashBothSitesRecoverJointly(t *testing.T) {
	dir := t.TempDir()
	sys := newSystem(t, dir)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := planOnce(t, ws, "da1", 120, "")
	dop, err := ws.Begin("dop-j", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, false)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(70))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Save("s"); err != nil {
		t.Fatal(err)
	}

	// Fig. 8 worst case: both sites crash.
	if err := sys.CrashWorkstation("ws1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	ws2, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	rec := ws2.RecoveredDOPs()
	if len(rec) != 1 {
		t.Fatalf("recovered %d DOPs", len(rec))
	}
	if _, err := rec[0].Checkin(version.StatusWorking, false); err != nil {
		t.Fatalf("checkin after joint recovery: %v", err)
	}
	if err := rec[0].Commit(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Repo().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignManagerIntegration(t *testing.T) {
	sys := newSystem(t, "")
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	// Runner: each DOP derives a smaller floorplan; Evaluate goes through
	// the CM.
	var last version.ID
	runner := func(ctx *script.Ctx, op script.Op, params map[string]string) (string, error) {
		switch op.Name {
		case "plan":
			area := 150.0
			if last != "" {
				area = 80
			}
			id := planVersion(t, ws, "da1", area, last)
			last = id
			return string(id), nil
		case "evaluate":
			q, err := sys.CM().Evaluate("da1", version.ID(params["dov"]))
			if err != nil {
				return "", err
			}
			if q.Final() {
				return "final", nil
			}
			return "preliminary", nil
		default:
			return "", errors.New("unknown op " + op.Name)
		}
	}
	s := script.Seq{Steps: []script.Node{
		script.Op{Name: "plan", IsDOP: true},
		script.Op{Name: "evaluate", Params: map[string]string{"dov": "$last"}},
		script.Op{Name: "plan", IsDOP: true},
		script.Op{Name: "evaluate", Params: map[string]string{"dov": "$last"}},
	}}
	dm, err := ws.NewDesignManager(script.Config{DA: "da1", Script: s, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Run(); err != nil {
		t.Fatal(err)
	}
	run, _ := dm.Engine().Stats()
	if run != 4 {
		t.Fatalf("ops run = %d", run)
	}
	g, _ := sys.Repo().Graph("da1")
	if g.Len() != 2 {
		t.Fatalf("graph len = %d", g.Len())
	}
	if len(g.FinalDOVs()) != 1 {
		t.Fatalf("finals = %d", len(g.FinalDOVs()))
	}
}

// planVersion is planOnce without the testing.T helper registration
// (callable from runners).
func planVersion(t *testing.T, ws *Workstation, da string, area float64, parent version.ID) version.ID {
	dop, err := ws.Begin("", da)
	if err != nil {
		t.Error(err)
		return ""
	}
	root := parent == ""
	if !root {
		if _, err := dop.Checkout(parent, false); err != nil {
			t.Error(err)
			return ""
		}
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str("O")).
		Set("area", catalog.Float(area))
	dop.SetWorkspace(obj) //nolint:errcheck
	id, err := dop.Checkin(version.StatusWorking, root)
	if err != nil {
		t.Error(err)
		return ""
	}
	if err := dop.Commit(); err != nil {
		t.Error(err)
	}
	return id
}

func TestCooperationEventsReachDMRules(t *testing.T) {
	sys := newSystem(t, "")
	startDA(t, sys, "root", areaSpec(1000))
	for _, id := range []string{"supporter", "requirer"} {
		if err := sys.CM().CreateSubDA("root", coop.Config{ID: id, DOT: vlsi.DOTFloorplan, Spec: areaSpec(100), Designer: "x"}); err != nil {
			t.Fatal(err)
		}
		if err := sys.CM().Start(id); err != nil {
			t.Fatal(err)
		}
	}
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	// v0 is derived but NOT evaluated or propagated yet: a Require cannot
	// be satisfied immediately and must go pending.
	v0 := planOnce(t, ws, "supporter", 60, "")
	// The supporter's DM rule answers Require with Evaluate + Propagate
	// (the paper's "WHEN Require IF available THEN Propagate").
	propagated := make(chan string, 1)
	rules := []script.Rule{{
		Name:  "auto-propagate",
		Event: coop.EventRequire,
		Action: func(c *script.Ctx, ev script.Event) error {
			if _, err := sys.CM().Evaluate("supporter", v0); err != nil {
				return err
			}
			if _, err := sys.CM().Propagate("supporter", v0); err != nil {
				return err
			}
			propagated <- ev.Data["requirer"]
			return nil
		},
	}}
	dm, err := ws.NewDesignManager(script.Config{
		DA:     "supporter",
		Script: script.Seq{Steps: []script.Node{script.Op{Name: "idle"}}},
		Runner: func(*script.Ctx, script.Op, map[string]string) (string, error) { return "", nil },
		Rules:  rules,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the subscription so the test can wait for the asynchronous
	// event delivery before running the script.
	delivered := make(chan struct{}, 4)
	sys.CM().Subscribe("supporter", func(ev script.Event) {
		dm.PostEvent(ev)
		delivered <- struct{}{}
	})
	// Require from the requirer: nothing propagated yet → pending + event.
	if _, ok, err := sys.CM().Require("requirer", "supporter", []string{"area-limit"}); err != nil || ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	<-delivered
	// Run the supporter's script: the queued event fires the rule.
	if err := dm.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case who := <-propagated:
		if who != "requirer" {
			t.Fatalf("propagated for %s", who)
		}
	default:
		t.Fatal("rule did not fire")
	}
	if !sys.Scopes().InScope("requirer", string(v0)) {
		t.Fatal("requirer cannot see the propagated version")
	}
}

func TestSystemConfigErrors(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Fatal("missing RegisterTypes accepted")
	}
	sys := newSystem(t, "")
	if _, err := sys.AddWorkstation("w"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddWorkstation("w"); err == nil {
		t.Fatal("duplicate workstation accepted")
	}
	if err := sys.CrashWorkstation("ghost"); err == nil {
		t.Fatal("crash of unknown workstation accepted")
	}
	if err := sys.RestartServer(); err == nil {
		t.Fatal("restart of running server accepted")
	}
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashServer(); err == nil {
		t.Fatal("double server crash accepted")
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
}

var _ = txn.PhaseActive // keep txn imported for doc-reference clarity

// TestAccessorsNilWhileServerDown: between CrashServer and RestartServer no
// site serves, and the site accessors answer nil (as Health answers "down")
// instead of dereferencing the missing site.
func TestAccessorsNilWhileServerDown(t *testing.T) {
	sys := newSystem(t, t.TempDir())
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	if r, cm, sc, tm := sys.Repo(), sys.CM(), sys.Scopes(), sys.ServerTM(); r != nil || cm != nil || sc != nil || tm != nil {
		t.Fatalf("accessors while down: Repo=%v CM=%v Scopes=%v ServerTM=%v, want all nil", r, cm, sc, tm)
	}
	if mode, _ := sys.Health(); mode != "down" {
		t.Fatalf("Health while down = %q, want down", mode)
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if sys.Repo() == nil || sys.CM() == nil || sys.Scopes() == nil || sys.ServerTM() == nil {
		t.Fatal("an accessor still answers nil after RestartServer")
	}
}
