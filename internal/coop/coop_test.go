package coop

import (
	"errors"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/feature"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/script"
	"concord/internal/version"
)

// harness bundles a CM deployment for tests.
type harness struct {
	cat    *catalog.Catalog
	repo   *repo.Repository
	scopes *lock.ScopeTable
	reg    *feature.Registry
	cm     *CM
}

func newHarness(t *testing.T, dir string) *harness {
	t.Helper()
	cat := catalog.New()
	for _, d := range []*catalog.DOT{
		{
			Name: "stdcell",
			Attrs: []catalog.AttrDef{
				{Name: "name", Kind: catalog.KindString, Required: true},
				{Name: "area", Kind: catalog.KindFloat},
			},
		},
		{
			Name: "cell",
			Attrs: []catalog.AttrDef{
				{Name: "name", Kind: catalog.KindString, Required: true},
				{Name: "area", Kind: catalog.KindFloat},
				{Name: "routed", Kind: catalog.KindBool},
			},
			Components: []catalog.ComponentDef{{Name: "subcells", DOT: "stdcell"}},
		},
		{
			Name: "chip",
			Attrs: []catalog.AttrDef{
				{Name: "name", Kind: catalog.KindString, Required: true},
				{Name: "area", Kind: catalog.KindFloat},
			},
			Components: []catalog.ComponentDef{{Name: "cells", DOT: "cell"}},
		},
	} {
		if err := cat.Register(d); err != nil {
			t.Fatal(err)
		}
	}
	r, err := repo.Open(cat, repo.Options{Dir: dir, Sync: dir != ""})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	scopes := lock.NewScopeTable()
	reg := feature.NewRegistry()
	cm, err := NewCM(r, scopes, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{cat: cat, repo: r, scopes: scopes, reg: reg, cm: cm}
}

// addDOV simulates a DOP checkin into a DA's derivation graph.
func (h *harness) addDOV(t *testing.T, da, id string, area float64, parents ...version.ID) version.ID {
	t.Helper()
	obj := catalog.NewObject("cell").Set("name", catalog.Str(id)).Set("area", catalog.Float(area))
	v := &version.DOV{
		ID: version.ID(id), DOT: "cell", DA: da, Parents: parents,
		Object: obj, Status: version.StatusWorking,
	}
	if err := h.repo.Checkin(v, len(parents) == 0); err != nil {
		t.Fatal(err)
	}
	if err := h.scopes.Own(da, id); err != nil {
		t.Fatal(err)
	}
	return version.ID(id)
}

func specArea(max float64) *feature.Spec {
	return feature.MustSpec(feature.Range("area-limit", "area", 0, max))
}

// initChipDA creates and starts a top-level chip DA.
func (h *harness) initChipDA(t *testing.T, id string, spec *feature.Spec) {
	t.Helper()
	if err := h.cm.InitDesign(Config{ID: id, DOT: "chip", Spec: spec, Designer: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.Start(id); err != nil {
		t.Fatal(err)
	}
}

// subDA creates and starts a sub-DA of super with a cell DOT.
func (h *harness) subDA(t *testing.T, super, id string, spec *feature.Spec, dov0 version.ID) {
	t.Helper()
	if err := h.cm.CreateSubDA(super, Config{ID: id, DOT: "cell", DOV0: dov0, Spec: spec, Designer: "bob"}); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.Start(id); err != nil {
		t.Fatal(err)
	}
}

// waitEvent subscribes a channel sink for a DA and returns a receiver.
func waitEvent(t *testing.T, cm *CM, da string) func(name string) script.Event {
	t.Helper()
	ch := make(chan script.Event, 16)
	cm.Subscribe(da, func(ev script.Event) { ch <- ev })
	return func(name string) script.Event {
		t.Helper()
		deadline := time.After(2 * time.Second)
		for {
			select {
			case ev := <-ch:
				if ev.Name == name {
					return ev
				}
			case <-deadline:
				t.Fatalf("timeout waiting for event %q at %s", name, da)
				return script.Event{}
			}
		}
	}
}

func TestInitDesignLifecycle(t *testing.T) {
	h := newHarness(t, "")
	if err := h.cm.InitDesign(Config{ID: "da1", DOT: "chip", Designer: "alice"}); err != nil {
		t.Fatal(err)
	}
	da, err := h.cm.Get("da1")
	if err != nil {
		t.Fatal(err)
	}
	if da.State != StateGenerated {
		t.Fatalf("state = %s, want generated", da.State)
	}
	if err := h.cm.InitDesign(Config{ID: "da1", DOT: "chip"}); !errors.Is(err, ErrDuplicateDA) {
		t.Fatalf("duplicate = %v", err)
	}
	if err := h.cm.InitDesign(Config{ID: "da2", DOT: "ghost"}); !errors.Is(err, catalog.ErrUnknownDOT) {
		t.Fatalf("unknown DOT = %v", err)
	}
	if err := h.cm.Start("da1"); err != nil {
		t.Fatal(err)
	}
	da, _ = h.cm.Get("da1")
	if da.State != StateActive {
		t.Fatalf("state = %s, want active", da.State)
	}
	// Start twice is illegal (active has no Start transition).
	if err := h.cm.Start("da1"); !errors.Is(err, ErrIllegalOp) {
		t.Fatalf("double start = %v", err)
	}
}

func TestCreateSubDAPartOfEnforcement(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "chip-da", nil)
	// cell is part of chip: allowed.
	if err := h.cm.CreateSubDA("chip-da", Config{ID: "cell-da", DOT: "cell"}); err != nil {
		t.Fatal(err)
	}
	// chip is NOT part of cell: delegation from a cell DA of a chip DOT
	// must fail.
	if err := h.cm.Start("cell-da"); err != nil {
		t.Fatal(err)
	}
	err := h.cm.CreateSubDA("cell-da", Config{ID: "bad", DOT: "chip"})
	if !errors.Is(err, ErrDOTNotPart) {
		t.Fatalf("inverted part-of = %v", err)
	}
	// Creation by a generated (unstarted) DA is illegal.
	if err := h.cm.CreateSubDA("chip-da", Config{ID: "c2", DOT: "cell"}); err != nil {
		t.Fatal(err)
	}
	err = h.cm.CreateSubDA("c2", Config{ID: "c3", DOT: "stdcell"})
	if !errors.Is(err, ErrIllegalOp) {
		t.Fatalf("create by generated DA = %v", err)
	}
	// The hierarchy is recorded.
	hier, err := h.cm.Hierarchy("chip-da")
	if err != nil {
		t.Fatal(err)
	}
	if len(hier) != 3 || hier[0] != "chip-da" {
		t.Fatalf("hierarchy = %v", hier)
	}
}

func TestDOV0MustBeInSuperScope(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	v0 := h.addDOV(t, "super", "v0", 100)
	// Foreign DOV0 not in scope.
	if err := h.repo.CreateGraph("other"); err != nil {
		t.Fatal(err)
	}
	err := h.cm.CreateSubDA("super", Config{ID: "sub-bad", DOT: "cell", DOV0: "ghost"})
	if !errors.Is(err, ErrOutOfScope) {
		t.Fatalf("out-of-scope DOV0 = %v", err)
	}
	// Legal DOV0 becomes readable by the sub-DA.
	if err := h.cm.CreateSubDA("super", Config{ID: "sub", DOT: "cell", DOV0: v0}); err != nil {
		t.Fatal(err)
	}
	if !h.scopes.InScope("sub", string(v0)) {
		t.Fatal("sub-DA cannot see its DOV0")
	}
}

func TestFig7Matrix(t *testing.T) {
	// The exhaustive legality matrix of the simplified state/transition
	// graph. Keyed claims from the paper:
	//  - generated: only Start, Terminate, Modify are possible
	//  - active: full cooperation; Propose suspends into negotiating
	//  - negotiating: only negotiation ops, spec change, termination
	//  - ready-for-termination: only Modify (back to active) and Terminate
	//  - terminated: nothing.
	type row struct {
		state State
		legal map[OpCode]State
	}
	rows := []row{
		{StateGenerated, map[OpCode]State{
			OpStart: StateActive, OpModifySubDASpec: StateGenerated, OpTerminateSubDA: StateTerminated,
		}},
		{StateActive, map[OpCode]State{
			OpCreateSubDA: StateActive, OpModifySubDASpec: StateActive,
			OpSubDAReadyToCommit: StateReadyForTermination, OpTerminateSubDA: StateTerminated,
			OpEvaluate: StateActive, OpSubDAImpossible: StateReadyForTermination,
			OpPropagate: StateActive, OpRequire: StateActive,
			OpCreateNegotiation: StateActive, OpPropose: StateNegotiating,
		}},
		{StateNegotiating, map[OpCode]State{
			OpPropose: StateNegotiating, OpAgree: StateActive, OpDisagree: StateNegotiating,
			OpSubDASpecConflict: StateActive, OpModifySubDASpec: StateActive,
			OpTerminateSubDA: StateTerminated,
		}},
		{StateReadyForTermination, map[OpCode]State{
			OpModifySubDASpec: StateActive, OpTerminateSubDA: StateTerminated,
		}},
		{StateTerminated, map[OpCode]State{}},
	}
	for _, r := range rows {
		for _, op := range AllOps() {
			next, ok := Legal(r.state, op)
			want, wantOK := r.legal[op]
			if ok != wantOK {
				t.Errorf("Legal(%s, %s) = %t, want %t", r.state, op, ok, wantOK)
				continue
			}
			if ok && next != want {
				t.Errorf("Legal(%s, %s) → %s, want %s", r.state, op, next, want)
			}
		}
	}
}

func TestEvaluateMarksFinal(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "da1", specArea(100))
	good := h.addDOV(t, "da1", "good", 80)
	bad := h.addDOV(t, "da1", "bad", 150)

	q, err := h.cm.Evaluate("da1", good)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Final() {
		t.Fatalf("good quality = %+v", q)
	}
	v, _ := h.repo.Get(good)
	if v.Status != version.StatusFinal {
		t.Fatalf("good status = %s", v.Status)
	}
	q, err = h.cm.Evaluate("da1", bad)
	if err != nil {
		t.Fatal(err)
	}
	if q.Final() {
		t.Fatal("bad DOV evaluated as final")
	}
	// Foreign DOV: out of scope.
	if err := h.repo.CreateGraph("other"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Evaluate("da1", "ghost"); !errors.Is(err, ErrOutOfScope) {
		t.Fatalf("foreign evaluate = %v", err)
	}
}

func TestRequireThenPropagate(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "supporter", specArea(100), "")
	h.subDA(t, "super", "requirer", specArea(100), "")

	supporterEvents := waitEvent(t, h.cm, "supporter")
	requirerEvents := waitEvent(t, h.cm, "requirer")

	// Require before anything is propagated: pending + event.
	dov, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"})
	if err != nil {
		t.Fatal(err)
	}
	if ok || dov != "" {
		t.Fatalf("premature grant: %s", dov)
	}
	ev := supporterEvents(EventRequire)
	if ev.Data["requirer"] != "requirer" {
		t.Fatalf("require event = %+v", ev)
	}
	pend, _ := h.cm.PendingRequires("supporter")
	if len(pend) != 1 {
		t.Fatalf("pending = %v", pend)
	}

	// Supporter derives a qualifying version, evaluates, propagates.
	v1 := h.addDOV(t, "supporter", "sup-v1", 60)
	if _, err := h.cm.Evaluate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	granted, err := h.cm.Propagate("supporter", v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(granted) != 1 || granted[0] != "requirer" {
		t.Fatalf("granted = %v", granted)
	}
	ev = requirerEvents(EventPropagated)
	if ev.Data["dov"] != string(v1) {
		t.Fatalf("propagated event = %+v", ev)
	}
	if !h.scopes.InScope("requirer", string(v1)) {
		t.Fatal("requirer cannot see the propagated DOV")
	}
	pend, _ = h.cm.PendingRequires("supporter")
	if len(pend) != 0 {
		t.Fatalf("pending after propagate = %v", pend)
	}
}

func TestRequireFindsExistingPropagatedDOV(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "supporter", specArea(100), "")
	h.subDA(t, "super", "requirer", specArea(100), "")

	v1 := h.addDOV(t, "supporter", "sup-v1", 42)
	if _, err := h.cm.Evaluate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Propagate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	dov, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || dov != v1 {
		t.Fatalf("require = (%s, %t)", dov, ok)
	}
}

func TestRequireUnknownFeatureRejected(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "supporter", specArea(100), "")
	h.subDA(t, "super", "requirer", nil, "")
	_, _, err := h.cm.Require("requirer", "supporter", []string{"ghost-feature"})
	if !errors.Is(err, ErrNoUsage) {
		t.Fatalf("require unknown feature = %v", err)
	}
	if _, _, err := h.cm.Require("requirer", "requirer", nil); !errors.Is(err, ErrNoUsage) {
		t.Fatalf("self require = %v", err)
	}
}

func TestPropagateOnlyOwnGraph(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "da1", nil)
	h.initChipDA(t, "da2", nil)
	v := h.addDOV(t, "da2", "foreign", 10)
	if _, err := h.cm.Propagate("da1", v); !errors.Is(err, ErrOutOfScope) {
		t.Fatalf("propagate foreign = %v", err)
	}
}

func TestNegotiationFlow(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "a", specArea(50), "")
	h.subDA(t, "super", "b", specArea(50), "")
	superEvents := waitEvent(t, h.cm, "super")
	bEvents := waitEvent(t, h.cm, "b")

	// Dynamic establishment via Propose: both suspend into negotiating.
	if err := h.cm.Propose("a", "b", map[string]string{"area-shift": "+10"}); err != nil {
		t.Fatal(err)
	}
	ev := bEvents(EventPropose)
	if ev.Data["from"] != "a" || ev.Data["area-shift"] != "+10" {
		t.Fatalf("propose event = %+v", ev)
	}
	for _, id := range []string{"a", "b"} {
		da, _ := h.cm.Get(id)
		if da.State != StateNegotiating {
			t.Fatalf("%s state = %s", id, da.State)
		}
	}
	// Propagate while negotiating is illegal (processing suspended).
	if _, err := h.cm.Propagate("a", "x"); !errors.Is(err, ErrIllegalOp) {
		t.Fatalf("propagate while negotiating = %v", err)
	}
	// Disagree keeps negotiating; conflict escalates to the super-DA.
	if err := h.cm.Disagree("b", "a"); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.SpecConflict("a", "b"); err != nil {
		t.Fatal(err)
	}
	ev = superEvents(EventSpecConflict)
	if ev.Data["a"] != "a" || ev.Data["b"] != "b" {
		t.Fatalf("conflict event = %+v", ev)
	}
	for _, id := range []string{"a", "b"} {
		da, _ := h.cm.Get(id)
		if da.State != StateActive {
			t.Fatalf("%s state after conflict = %s", id, da.State)
		}
	}
}

func TestNegotiationAgree(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "a", specArea(50), "")
	h.subDA(t, "super", "b", specArea(50), "")
	if err := h.cm.CreateNegotiationRel("super", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.Propose("a", "b", nil); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.Agree("b", "a"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		da, _ := h.cm.Get(id)
		if da.State != StateActive {
			t.Fatalf("%s state after agree = %s", id, da.State)
		}
	}
}

func TestNegotiationOnlyBetweenSiblings(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "a", nil, "")
	h.subDA(t, "a", "grandchild", nil, "")
	if err := h.cm.Propose("a", "grandchild", nil); !errors.Is(err, ErrNotSiblings) {
		t.Fatalf("parent-child propose = %v", err)
	}
	if err := h.cm.CreateNegotiationRel("super", "a", "a"); !errors.Is(err, ErrNotSiblings) {
		t.Fatalf("self negotiation = %v", err)
	}
	h.initChipDA(t, "other-root", nil)
	if err := h.cm.Propose("a", "other-root", nil); !errors.Is(err, ErrNotSiblings) {
		t.Fatalf("cross-hierarchy propose = %v", err)
	}
	if err := h.cm.Agree("a", "grandchild"); !errors.Is(err, ErrNoNegotiation) {
		t.Fatalf("agree without relationship = %v", err)
	}
}

func TestReadyToCommitAndTermination(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", specArea(1000))
	h.subDA(t, "super", "sub", specArea(100), "")
	superEvents := waitEvent(t, h.cm, "super")

	// Ready-to-commit without a final DOV is refused.
	if err := h.cm.SubDAReadyToCommit("sub"); !errors.Is(err, ErrNoFinalDOV) {
		t.Fatalf("premature ready = %v", err)
	}
	final := h.addDOV(t, "sub", "final-v", 80)
	if _, err := h.cm.Evaluate("sub", final); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.SubDAReadyToCommit("sub"); err != nil {
		t.Fatal(err)
	}
	superEvents(EventReadyToCommit)
	da, _ := h.cm.Get("sub")
	if da.State != StateReadyForTermination {
		t.Fatalf("state = %s", da.State)
	}
	// Terminating transfers the final DOV's scope lock to the super-DA.
	if err := h.cm.TerminateSubDA("super", "sub"); err != nil {
		t.Fatal(err)
	}
	if owner, _ := h.scopes.Owner(string(final)); owner != "super" {
		t.Fatalf("final owner = %s, want super", owner)
	}
	sup, _ := h.cm.Get("super")
	if len(sup.InheritedFinals) != 1 || sup.InheritedFinals[0] != final {
		t.Fatalf("inherited = %v", sup.InheritedFinals)
	}
	da, _ = h.cm.Get("sub")
	if da.State != StateTerminated {
		t.Fatalf("state = %s", da.State)
	}
	// All ops on a terminated DA fail.
	if _, err := h.cm.Evaluate("sub", final); !errors.Is(err, ErrIllegalOp) {
		t.Fatalf("evaluate terminated = %v", err)
	}
}

func TestTerminationBlockedByLiveChildren(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "root", nil)
	h.subDA(t, "root", "mid", nil, "")
	h.subDA(t, "mid", "leaf", nil, "")
	if err := h.cm.TerminateSubDA("root", "mid"); !errors.Is(err, ErrChildrenLive) {
		t.Fatalf("terminate with live child = %v", err)
	}
	if err := h.cm.TerminateSubDA("mid", "leaf"); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.TerminateSubDA("root", "mid"); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.TerminateTopLevel("root"); err != nil {
		t.Fatal(err)
	}
	da, _ := h.cm.Get("root")
	if da.State != StateTerminated {
		t.Fatalf("root state = %s", da.State)
	}
}

func TestTerminationWithdrawsNonFinalGrants(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	// Two-feature spec: v1 fulfils only area-limit, so it stays a
	// preliminary (non-final) version after Evaluate.
	supSpec := feature.MustSpec(
		feature.Range("area-limit", "area", 0, 100),
		feature.Equals("routed", "routed", catalog.Bool(true)),
	)
	h.subDA(t, "super", "supporter", supSpec, "")
	h.subDA(t, "super", "requirer", nil, "")
	reqEvents := waitEvent(t, h.cm, "requirer")

	v1 := h.addDOV(t, "supporter", "prelim", 60)
	if _, err := h.cm.Evaluate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Propagate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"}); err != nil || !ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	// The supporter is cancelled outright (allowed from active).
	if err := h.cm.TerminateSubDA("super", "supporter"); err != nil {
		t.Fatal(err)
	}
	ev := reqEvents(EventWithdraw)
	if ev.Data["dov"] != string(v1) {
		t.Fatalf("withdraw event = %+v", ev)
	}
	if h.scopes.InScope("requirer", string(v1)) {
		t.Fatal("withdrawn DOV still visible")
	}
}

func TestModifySubDASpecWithdrawsStaleGrants(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	spec := feature.MustSpec(
		feature.Range("area-limit", "area", 0, 100),
		feature.Range("name-ok", "area", 0, 1000),
	)
	h.subDA(t, "super", "supporter", spec, "")
	h.subDA(t, "super", "requirer", nil, "")
	subEvents := waitEvent(t, h.cm, "supporter")
	reqEvents := waitEvent(t, h.cm, "requirer")

	v1 := h.addDOV(t, "supporter", "v1", 60)
	if _, err := h.cm.Evaluate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Propagate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"}); err != nil || !ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	// The super drops the area-limit feature entirely: the grant's basis
	// vanishes and the propagation must be withdrawn.
	newSpec := feature.MustSpec(feature.Range("power-limit", "power", 0, 5))
	if err := h.cm.ModifySubDASpec("super", "supporter", newSpec); err != nil {
		t.Fatal(err)
	}
	subEvents(EventSpecModified)
	ev := reqEvents(EventWithdraw)
	if ev.Data["dov"] != string(v1) {
		t.Fatalf("withdraw = %+v", ev)
	}
	if h.scopes.InScope("requirer", string(v1)) {
		t.Fatal("stale grant survived spec change")
	}
	da, _ := h.cm.Get("supporter")
	if da.State != StateActive {
		t.Fatalf("state after modify = %s", da.State)
	}
}

func TestModifySpecRequiresParent(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.initChipDA(t, "stranger", nil)
	h.subDA(t, "super", "sub", nil, "")
	err := h.cm.ModifySubDASpec("stranger", "sub", specArea(10))
	if !errors.Is(err, ErrNotParent) {
		t.Fatalf("modify by stranger = %v", err)
	}
}

func TestRefineOwnSpec(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "sub", specArea(100), "")
	// Narrowing is a legal refinement.
	if err := h.cm.RefineOwnSpec("sub", specArea(80)); err != nil {
		t.Fatal(err)
	}
	// Widening is not.
	if err := h.cm.RefineOwnSpec("sub", specArea(200)); !errors.Is(err, ErrNotRefinement) {
		t.Fatalf("widening = %v", err)
	}
}

func TestImpossibleSpecFlow(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "sub", specArea(10), "")
	superEvents := waitEvent(t, h.cm, "super")
	if err := h.cm.SubDAImpossibleSpec("sub", "area too small"); err != nil {
		t.Fatal(err)
	}
	ev := superEvents(EventImpossible)
	if ev.Data["reason"] != "area too small" {
		t.Fatalf("impossible event = %+v", ev)
	}
	da, _ := h.cm.Get("sub")
	if da.State != StateReadyForTermination {
		t.Fatalf("state = %s", da.State)
	}
	// The super reacts with a modified (larger) specification: the sub
	// returns to active and keeps its derivation graph.
	if err := h.cm.ModifySubDASpec("super", "sub", specArea(50)); err != nil {
		t.Fatal(err)
	}
	da, _ = h.cm.Get("sub")
	if da.State != StateActive {
		t.Fatalf("state after modify = %s", da.State)
	}
}

func TestInvalidateWithReplacement(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "supporter", specArea(100), "")
	h.subDA(t, "super", "requirer", nil, "")
	reqEvents := waitEvent(t, h.cm, "requirer")

	v1 := h.addDOV(t, "supporter", "v1", 60)
	v2 := h.addDOV(t, "supporter", "v2", 50, v1)
	for _, v := range []version.ID{v1, v2} {
		if _, err := h.cm.Evaluate("supporter", v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.cm.Propagate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Propagate("supporter", v2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"}); err != nil || !ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	// v1 turns out to be a dead end: the CM must hand the requirer a
	// replacement fulfilling the same features.
	if err := h.cm.InvalidateDOV("supporter", v1); err != nil {
		t.Fatal(err)
	}
	ev := reqEvents(EventReplaced)
	if ev.Data["old"] != string(v1) || ev.Data["dov"] != string(v2) {
		t.Fatalf("replaced event = %+v", ev)
	}
	if h.scopes.InScope("requirer", string(v1)) {
		t.Fatal("invalidated DOV still visible")
	}
	if !h.scopes.InScope("requirer", string(v2)) {
		t.Fatal("replacement not granted")
	}
	v, _ := h.repo.Get(v1)
	if v.Status != version.StatusInvalid {
		t.Fatalf("status = %s", v.Status)
	}
}

func TestCMRecoveryAfterServerCrash(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir)
	h.initChipDA(t, "super", specArea(1000))
	h.subDA(t, "super", "supporter", specArea(100), "")
	h.subDA(t, "super", "requirer", specArea(500), "")
	v1 := h.addDOV(t, "supporter", "v1", 60)
	if _, err := h.cm.Evaluate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.cm.Propagate("supporter", v1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.cm.Require("requirer", "supporter", []string{"area-limit"}); err != nil || !ok {
		t.Fatalf("require = %t, %v", ok, err)
	}
	logLen := h.cm.ProtocolLogLen()
	if logLen == 0 {
		t.Fatal("protocol log empty")
	}
	h.repo.Close()

	// Server crash: reopen repository, fresh scope table, new CM.
	r2, err := repo.Open(h.cat, repo.Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	scopes2 := lock.NewScopeTable()
	cm2, err := NewCM(r2, scopes2, h.reg)
	if err != nil {
		t.Fatalf("CM recovery: %v", err)
	}
	// States survived.
	for _, id := range []string{"super", "supporter", "requirer"} {
		da, err := cm2.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if da.State != StateActive {
			t.Fatalf("%s state = %s", id, da.State)
		}
	}
	// Scope table rebuilt: owner and usage grant restored.
	if owner, _ := scopes2.Owner(string(v1)); owner != "supporter" {
		t.Fatalf("owner after recovery = %s", owner)
	}
	if !scopes2.InScope("requirer", string(v1)) {
		t.Fatal("usage grant lost in recovery")
	}
	// Usage relationship survived.
	req, _ := cm2.Get("requirer")
	if len(req.UsesFrom["supporter"]) != 1 {
		t.Fatalf("UsesFrom after recovery = %v", req.UsesFrom)
	}
	// Protocol log survived.
	if cm2.ProtocolLogLen() != logLen {
		t.Fatalf("protocol log = %d, want %d", cm2.ProtocolLogLen(), logLen)
	}
	// The recovered CM keeps working: terminate the hierarchy. Each
	// operation appends one protocol log entry after the recovered ones
	// instead of overwriting them.
	final := version.ID("final-v")
	obj := catalog.NewObject("cell").Set("name", catalog.Str("f")).Set("area", catalog.Float(10))
	if err := r2.Checkin(&version.DOV{ID: final, DOT: "cell", DA: "supporter", Object: obj, Status: version.StatusWorking}, true); err != nil {
		t.Fatal(err)
	}
	if err := scopes2.Own("supporter", string(final)); err != nil {
		t.Fatal(err)
	}
	for i, op := range []func() error{
		func() error { _, err := cm2.Evaluate("supporter", final); return err },
		func() error { return cm2.SubDAReadyToCommit("supporter") },
		func() error { return cm2.TerminateSubDA("super", "supporter") },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
		if got, want := cm2.ProtocolLogLen(), logLen+i+1; got != want {
			t.Fatalf("protocol log after %d operations of the recovered CM = %d, want %d", i+1, got, want)
		}
	}
}

func TestInheritedFinalsRecovery(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, dir)
	h.initChipDA(t, "super", nil)
	h.subDA(t, "super", "sub", specArea(100), "")
	final := h.addDOV(t, "sub", "final-v", 50)
	if _, err := h.cm.Evaluate("sub", final); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.SubDAReadyToCommit("sub"); err != nil {
		t.Fatal(err)
	}
	if err := h.cm.TerminateSubDA("super", "sub"); err != nil {
		t.Fatal(err)
	}
	h.repo.Close()

	r2, err := repo.Open(h.cat, repo.Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	scopes2 := lock.NewScopeTable()
	if _, err := NewCM(r2, scopes2, h.reg); err != nil {
		t.Fatal(err)
	}
	// The inherited final must be owned by super after recovery, even
	// though it lives in sub's derivation graph.
	if owner, _ := scopes2.Owner(string(final)); owner != "super" {
		t.Fatalf("inherited owner after recovery = %s", owner)
	}
}

func TestOpAndStateStrings(t *testing.T) {
	if OpInitDesign.String() != "Init_Design" || OpSubDASpecConflict.String() != "Sub_DA_Spec_Conflict" {
		t.Error("op names wrong")
	}
	if OpCode(99).String() != "op(99)" {
		t.Error("unknown op name wrong")
	}
	if StateGenerated.String() != "generated" || State(77).String() != "state(77)" {
		t.Error("state names wrong")
	}
	if RelDelegation.String() != "delegation" || RelUsage.String() != "usage" || RelNegotiation.String() != "negotiation" || Relationship(9).String() != "relationship(9)" {
		t.Error("relationship names wrong")
	}
	if len(AllOps()) != 15 || len(AllStates()) != 5 {
		t.Error("enumerations wrong")
	}
}

func TestOpCounts(t *testing.T) {
	h := newHarness(t, "")
	h.initChipDA(t, "da1", nil)
	counts := h.cm.OpCounts()
	if counts[OpInitDesign] != 1 || counts[OpStart] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}
