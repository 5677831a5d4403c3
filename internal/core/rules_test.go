package core

import (
	"errors"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/feature"
	"concord/internal/script"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// rulesHarness builds a root DA with supporter/requirer children and a
// supporter DM running StandardRules.
type rulesHarness struct {
	sys *System
	ws  *Workstation
	dm  *script.DesignManager
	// delivered signals each event arrival at the DM.
	delivered chan script.Event
}

func newRulesHarness(t *testing.T) *rulesHarness {
	t.Helper()
	sys := newSystem(t, "")
	startDA(t, sys, "root", areaSpec(10000))
	for _, id := range []string{"supporter", "requirer"} {
		if err := sys.CM().CreateSubDA("root", coop.Config{ID: id, DOT: vlsi.DOTFloorplan, Spec: areaSpec(100), Designer: id}); err != nil {
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
	// Idle-loop script so the DM can be run repeatedly to process events.
	idle := script.Seq{Steps: []script.Node{script.Op{Name: "idle"}}}
	runner := func(*script.Ctx, script.Op, map[string]string) (string, error) { return "", nil }
	dm, err := ws.NewDesignManager(script.Config{
		DA: "supporter", Script: idle, Runner: runner,
		Rules: StandardRules(sys, "supporter"),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &rulesHarness{sys: sys, ws: ws, dm: dm, delivered: make(chan script.Event, 16)}
	sys.CM().Subscribe("supporter", func(ev script.Event) {
		dm.PostEvent(ev)
		h.delivered <- ev
	})
	return h
}

func (h *rulesHarness) waitEvent(t *testing.T, name string) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev := <-h.delivered:
			if ev.Name == name {
				return
			}
		case <-deadline:
			t.Fatalf("timeout waiting for %s", name)
		}
	}
}

func TestStandardRuleAutoPropagate(t *testing.T) {
	h := newRulesHarness(t)
	// The supporter has an unevaluated version that would qualify.
	v0 := planOnce(t, h.ws, "supporter", 60, "")
	// Require goes pending (nothing propagated yet).
	if _, ok, err := h.sys.CM().Require("requirer", "supporter", []string{"area-limit"}); err != nil || ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	h.waitEvent(t, coop.EventRequire)
	if err := h.dm.Run(); err != nil {
		t.Fatal(err)
	}
	// The rule evaluated + propagated v0 and satisfied the pending request.
	if !h.sys.Scopes().InScope("requirer", string(v0)) {
		t.Fatal("auto-propagate rule did not satisfy the pending require")
	}
	pend, _ := h.sys.CM().PendingRequires("supporter")
	if len(pend) != 0 {
		t.Fatalf("pending = %v", pend)
	}
}

func TestStandardRuleWithdrawalAnalysis(t *testing.T) {
	h := newRulesHarness(t)
	sys := h.sys
	// requirer consumes a propagated version from a third DA and derives
	// from it; then the grant is withdrawn.
	if err := sys.CM().CreateSubDA("root", coop.Config{ID: "third", DOT: vlsi.DOTFloorplan, Spec: areaSpec(100), Designer: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.CM().Start("third"); err != nil {
		t.Fatal(err)
	}
	// Build a supporter DM watching withdrawals — here the *supporter* of
	// the rule set is the consuming DA, so rebuild the harness around the
	// consuming side: use the existing "supporter" DA as consumer.
	shared := planOnce(t, h.ws, "third", 50, "")
	if _, err := sys.CM().Evaluate("third", shared); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.CM().Propagate("third", shared); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := sys.CM().Require("supporter", "third", []string{"area-limit"}); err != nil || !ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	// The consumer derives from the shared version within a local DOP.
	dop, err := h.ws.Begin("", "supporter")
	if err != nil {
		t.Fatal(err)
	}
	in, err := dop.Checkout(shared, false)
	if err != nil {
		t.Fatal(err)
	}
	in.Set("area", catalog.Float(45))
	dop.SetWorkspace(in) //nolint:errcheck
	derived, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	// Withdraw: third's spec changes so area-limit vanishes.
	newSpec := feature.MustSpec(feature.Range("power-limit", "power", 0, 5))
	if err := sys.CM().ModifySubDASpec("root", "third", newSpec); err != nil {
		t.Fatal(err)
	}
	h.waitEvent(t, coop.EventWithdraw)
	err = h.dm.Run()
	if !errors.Is(err, script.ErrStopped) {
		t.Fatalf("dm.Run = %v, want ErrStopped (designer must decide)", err)
	}
	ctxVar := h.dm.Engine().Var("rule:withdraw-affected")
	if ctxVar == "" {
		t.Fatal("affected versions not recorded")
	}
	if ctxVar != string(derived) {
		t.Fatalf("affected = %q, want %q", ctxVar, derived)
	}
}

func TestStandardRuleSpecModifiedStops(t *testing.T) {
	h := newRulesHarness(t)
	if err := h.sys.CM().ModifySubDASpec("root", "supporter", areaSpec(50)); err != nil {
		t.Fatal(err)
	}
	h.waitEvent(t, coop.EventSpecModified)
	if err := h.dm.Run(); !errors.Is(err, script.ErrStopped) {
		t.Fatalf("dm.Run = %v, want ErrStopped", err)
	}
	if h.dm.Engine().Var("rule:spec-modified") != "root" {
		t.Fatal("spec-modified not recorded")
	}
	// Restart from the beginning: reset the journal and run to completion.
	if err := h.dm.ResetJournal(); err != nil {
		t.Fatal(err)
	}
	if err := h.dm.Run(); err != nil {
		t.Fatalf("restart after spec change: %v", err)
	}
}

func TestStandardRuleNegotiationSuspends(t *testing.T) {
	h := newRulesHarness(t)
	if err := h.sys.CM().Propose("requirer", "supporter", map[string]string{"ask": "area"}); err != nil {
		t.Fatal(err)
	}
	h.waitEvent(t, coop.EventPropose)
	if err := h.dm.Run(); !errors.Is(err, script.ErrStopped) {
		t.Fatalf("dm.Run = %v, want ErrStopped while negotiating", err)
	}
	if h.dm.Engine().Var("rule:negotiating") != "requirer" {
		t.Fatal("negotiation partner not recorded")
	}
	// Agreement resumes processing.
	if err := h.sys.CM().Agree("supporter", "requirer"); err != nil {
		t.Fatal(err)
	}
	if err := h.dm.Run(); err != nil {
		t.Fatalf("resume after agree: %v", err)
	}
}

// TestDesignManagerSurvivesServerRestart: a design manager attached before a
// server crash keeps working after the restart. Its script store resolves
// the restarted repository, its event sink moves to the restarted CM, and
// StandardRules act through that CM.
func TestDesignManagerSurvivesServerRestart(t *testing.T) {
	sys := newSystem(t, t.TempDir())
	startDA(t, sys, "root", areaSpec(10000))
	for _, id := range []string{"supporter", "requirer"} {
		if err := sys.CM().CreateSubDA("root", coop.Config{ID: id, DOT: vlsi.DOTFloorplan, Spec: areaSpec(100), Designer: id}); err != nil {
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
	idle := script.Seq{Steps: []script.Node{script.Op{Name: "idle"}}}
	runner := func(*script.Ctx, script.Op, map[string]string) (string, error) { return "", nil }
	dm, err := ws.NewDesignManager(script.Config{
		DA: "supporter", Script: idle, Runner: runner,
		Rules: StandardRules(sys, "supporter"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}

	v0 := planOnce(t, ws, "supporter", 60, "")
	marker := make(chan script.Event, 4)
	sys.CM().Subscribe("requirer", func(ev script.Event) { marker <- ev })
	if _, ok, err := sys.CM().Require("requirer", "supporter", []string{"area-limit"}); err != nil || ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	// One dispatcher delivers every CM event in order: once the requirer
	// sees the spec change queued after the Require, the supporter's DM has
	// been handed the Require.
	if err := sys.CM().ModifySubDASpec("root", "requirer", areaSpec(100)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-marker:
	case <-time.After(2 * time.Second):
		t.Fatal("the restarted CM delivered no event")
	}
	if err := dm.Run(); err != nil {
		t.Fatalf("DM run after server restart: %v", err)
	}
	if dm.JournaledOps() != 1 {
		t.Fatalf("journaled ops after restart = %d, want 1", dm.JournaledOps())
	}
	if !sys.Scopes().InScope("requirer", string(v0)) {
		t.Fatal("the auto-propagate rule did not reach the restarted CM")
	}
}
