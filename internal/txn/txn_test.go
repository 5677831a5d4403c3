package txn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
)

// stack bundles a full in-process TE-level deployment.
type stack struct {
	cat    *catalog.Catalog
	repo   *repo.Repository
	locks  *lock.Manager
	scopes *lock.ScopeTable
	server *ServerTM
	part   *rpc.Participant
	trans  *rpc.InProc
	tm     *ClientTM
	dir    string
}

const serverAddr = "server"

func newStack(t *testing.T, dir string) *stack {
	t.Helper()
	cat := catalog.New()
	if err := cat.Register(&catalog.DOT{
		Name: "floorplan",
		Attrs: []catalog.AttrDef{
			{Name: "cell", Kind: catalog.KindString, Required: true},
			{Name: "area", Kind: catalog.KindFloat, Bounded: true, Min: 0, Max: 1e12},
		},
	}); err != nil {
		t.Fatal(err)
	}
	var repoDir string
	if dir != "" {
		repoDir = dir + "/server"
	}
	r, err := repo.Open(cat, repo.Options{Dir: repoDir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	locks := lock.NewManager()
	scopes := lock.NewScopeTable()
	server := NewServerTM(r, locks, scopes)
	server.LockTimeout = 300 * time.Millisecond
	participant, err := rpc.NewParticipant(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	trans := rpc.NewInProc(rpc.FaultPlan{})
	t.Cleanup(func() { trans.Close() })
	if err := rpc.ServeWithDeadline(trans, serverAddr, rpc.DedupDeadlineFenced(server.DeadlineHandler(participant), nil)); err != nil {
		t.Fatal(err)
	}
	tm := newTM(t, trans, dir)
	return &stack{cat: cat, repo: r, locks: locks, scopes: scopes, server: server, part: participant, trans: trans, tm: tm, dir: dir}
}

func newTM(t *testing.T, trans *rpc.InProc, dir string) *ClientTM {
	t.Helper()
	client := rpc.NewClient(trans, "ws1")
	client.Backoff = 0
	var tmDir string
	if dir != "" {
		tmDir = dir + "/ws1"
	}
	tm, recovered, err := NewClientTM("ws1", client, serverAddr, tmDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh TM recovered %d DOPs", len(recovered))
	}
	t.Cleanup(func() { tm.Close() })
	return tm
}

// seedDOV installs an initial version into da1's graph and scope.
func (s *stack) seedDOV(t *testing.T, id string, area float64) version.ID {
	t.Helper()
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(area))
	v := &version.DOV{ID: version.ID(id), DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := s.repo.Checkin(v, true); err != nil {
		t.Fatal(err)
	}
	if err := s.scopes.Own("da1", id); err != nil {
		t.Fatal(err)
	}
	return version.ID(id)
}

func TestDOPHappyPath(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)

	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	// Tool processing: improve the floorplan.
	obj.Set("area", catalog.Float(80))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	newID, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	if dop.Phase() != PhaseCommitted {
		t.Fatalf("phase = %s", dop.Phase())
	}
	// Derived DOV persisted with correct derivation edge and payload.
	got, err := s.repo.Object(newID)
	if err != nil {
		t.Fatal(err)
	}
	if catalog.NumAttr(got, "area") != 80 {
		t.Fatalf("area = %g", catalog.NumAttr(got, "area"))
	}
	g, _ := s.repo.Graph("da1")
	ok, err := g.IsAncestor(v0, newID)
	if err != nil || !ok {
		t.Fatalf("derivation edge missing: %t, %v", ok, err)
	}
	// New DOV joined the DA's scope.
	if owner, _ := s.scopes.Owner(string(newID)); owner != "da1" {
		t.Fatalf("scope owner = %s", owner)
	}
	// Derivation lock released after DOP end.
	if s.locks.Holds(dop.ID(), "dov/"+string(v0)) != 0 {
		t.Fatal("derivation lock survived commit")
	}
	if s.server.ActiveDOPs() != 0 {
		t.Fatal("server still tracks ended DOP")
	}
}

func TestCheckoutScopeDenied(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	if err := s.repo.CreateGraph("da2"); err != nil {
		t.Fatal(err)
	}
	dop, err := s.tm.Begin("", "da2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err == nil || !strings.Contains(err.Error(), "scope") {
		t.Fatalf("checkout outside scope = %v", err)
	}
}

func TestDerivationLockConflict(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	dop1, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop1.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	dop2, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	// Second derivation checkout must be refused while dop1 holds D.
	if _, err := dop2.Checkout(v0, true); err == nil {
		t.Fatal("second derivation checkout succeeded")
	}
	// Plain read is still allowed under a derivation lock.
	if _, err := dop2.Checkout(v0, false); err != nil {
		t.Fatalf("read under D lock: %v", err)
	}
	// After dop1 aborts, dop2 can derive.
	if err := dop1.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := dop2.Checkout(v0, true); err != nil {
		t.Fatalf("derive after abort: %v", err)
	}
}

func TestExplicitDerivationLockRelease(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	dop1, _ := s.tm.Begin("", "da1")
	if _, err := dop1.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	if err := dop1.ReleaseDerivationLock(v0); err != nil {
		t.Fatal(err)
	}
	dop2, _ := s.tm.Begin("", "da1")
	if _, err := dop2.Checkout(v0, true); err != nil {
		t.Fatalf("derive after explicit release: %v", err)
	}
	// Releasing twice reports not-held.
	if err := dop1.ReleaseDerivationLock(v0); err == nil {
		t.Fatal("double release accepted")
	}
}

func TestCheckinValidationFailure(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	// Violates the area bound: server must vote abort in prepare.
	bad := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(-1))
	if err := dop.SetWorkspace(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, true); !errors.Is(err, ErrCheckinFailed) {
		t.Fatalf("bad checkin = %v, want ErrCheckinFailed", err)
	}
	if s.repo.DOVCount() != 0 {
		t.Fatal("rejected DOV stored")
	}
	// The designer fixes the data; the retried checkin succeeds.
	good := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(50))
	if err := dop.SetWorkspace(good); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, true); err != nil {
		t.Fatalf("retry after fix: %v", err)
	}
}

func TestCheckinParentOutsideScopeRejected(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	dop, _ := s.tm.Begin("", "da1")
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	// Strip the scope after checkout: prepare must notice.
	s.scopes.ReleaseDA("da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(10))
	dop.SetWorkspace(obj) //nolint:errcheck
	if _, err := dop.Checkin(version.StatusWorking, false); !errors.Is(err, ErrCheckinFailed) {
		t.Fatalf("checkin with out-of-scope parent = %v", err)
	}
}

func TestSavepointsAndRestore(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(100))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Save("before-resize"); err != nil {
		t.Fatal(err)
	}
	dop.Workspace().Set("area", catalog.Float(42))
	if err := dop.Save("after-resize"); err != nil {
		t.Fatal(err)
	}
	dop.Workspace().Set("area", catalog.Float(7))
	if err := dop.Restore("before-resize"); err != nil {
		t.Fatal(err)
	}
	if got := catalog.NumAttr(dop.Workspace(), "area"); got != 100 {
		t.Fatalf("area after restore = %g, want 100", got)
	}
	if err := dop.Restore("after-resize"); err != nil {
		t.Fatal(err)
	}
	if got := catalog.NumAttr(dop.Workspace(), "area"); got != 42 {
		t.Fatalf("area after second restore = %g, want 42", got)
	}
	if err := dop.Restore("ghost"); !errors.Is(err, ErrNoSavepoint) {
		t.Fatalf("ghost restore = %v", err)
	}
	sps := dop.Savepoints()
	if len(sps) != 2 || sps[0] != "before-resize" {
		t.Fatalf("Savepoints = %v", sps)
	}
}

func TestSuspendResume(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(33))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Suspend(); err != nil {
		t.Fatal(err)
	}
	if dop.Phase() != PhaseSuspended {
		t.Fatalf("phase = %s", dop.Phase())
	}
	// No processing while suspended.
	if err := dop.SetWorkspace(obj); !errors.Is(err, ErrDOPNotActive) {
		t.Fatalf("SetWorkspace while suspended = %v", err)
	}
	if err := dop.Save("x"); !errors.Is(err, ErrDOPNotActive) {
		t.Fatalf("Save while suspended = %v", err)
	}
	if err := dop.Suspend(); err == nil {
		t.Fatal("double suspend accepted")
	}
	if err := dop.Resume(); err != nil {
		t.Fatal(err)
	}
	// State after resume equals state at suspend.
	if got := catalog.NumAttr(dop.Workspace(), "area"); got != 33 {
		t.Fatalf("area after resume = %g", got)
	}
	if err := dop.Resume(); err == nil {
		t.Fatal("resume of active DOP accepted")
	}
}

func TestWorkstationCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	v0 := s.seedDOV(t, "v0", 100)

	dop, err := s.tm.Begin("dop-crash", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(55))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Save("progress"); err != nil {
		t.Fatal(err)
	}
	// Workstation crashes: volatile state gone, log survives.
	s.tm.Crash()

	client := rpc.NewClient(s.trans, "ws1r")
	client.Backoff = 0
	tm2, recovered, err := NewClientTM("ws1", client, serverAddr, dir+"/ws1")
	if err != nil {
		t.Fatal(err)
	}
	defer tm2.Close()
	if len(recovered) != 1 {
		t.Fatalf("recovered %d DOPs, want 1", len(recovered))
	}
	rdop := recovered[0]
	if rdop.ID() != "dop-crash" || rdop.DA() != "da1" {
		t.Fatalf("recovered DOP = %s/%s", rdop.ID(), rdop.DA())
	}
	// Context restored at the most recent recovery point (the savepoint).
	if got := catalog.NumAttr(rdop.Workspace(), "area"); got != 55 {
		t.Fatalf("workspace after recovery = %g, want 55", got)
	}
	inputs := rdop.Inputs()
	if len(inputs) != 1 || inputs[0] != v0 {
		t.Fatalf("inputs after recovery = %v", inputs)
	}
	// No duplicate checkout needed: the input data is in the context.
	if _, err := rdop.Input(v0); err != nil {
		t.Fatalf("Input after recovery: %v", err)
	}
	// Reattach and finish the DOP.
	if err := tm2.Reattach(rdop); err != nil {
		t.Fatal(err)
	}
	newID, err := rdop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatalf("checkin after recovery: %v", err)
	}
	if err := rdop.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := s.repo.Object(newID)
	if err != nil {
		t.Fatal(err)
	}
	if catalog.NumAttr(got, "area") != 55 {
		t.Fatal("work since last recovery point was not preserved")
	}
}

func TestCommittedDOPNotRecovered(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	dop, _ := s.tm.Begin("dop-done", "da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(1))
	dop.SetWorkspace(obj) //nolint:errcheck
	if _, err := dop.Checkin(version.StatusFinal, true); err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	s.tm.Crash()
	client := rpc.NewClient(s.trans, "ws1r")
	client.Backoff = 0
	tm2, recovered, err := NewClientTM("ws1", client, serverAddr, dir+"/ws1")
	if err != nil {
		t.Fatal(err)
	}
	defer tm2.Close()
	if len(recovered) != 0 {
		t.Fatalf("recovered %d ended DOPs", len(recovered))
	}
}

func TestConcurrentCheckinsSameDA(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	const n = 6
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			dop, err := s.tm.Begin("", "da1")
			if err != nil {
				errc <- err
				return
			}
			obj, err := dop.Checkout(v0, false)
			if err != nil {
				errc <- err
				return
			}
			obj.Set("area", catalog.Float(float64(50)))
			if err := dop.SetWorkspace(obj); err != nil {
				errc <- err
				return
			}
			if _, err := dop.Checkin(version.StatusWorking, false); err != nil {
				errc <- err
				return
			}
			errc <- dop.Commit()
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	g, _ := s.repo.Graph("da1")
	if g.Len() != n+1 {
		t.Fatalf("graph len = %d, want %d", g.Len(), n+1)
	}
	if !g.Acyclic() {
		t.Fatal("derivation graph corrupted by concurrency")
	}
	kids := g.Children(v0)
	if len(kids) != n {
		t.Fatalf("children of v0 = %d, want %d", len(kids), n)
	}
}

// TestServerCheckoutScalingBounds is the gate on the MVCC read path: eight
// readers, each in its own DA, check out a 96-part design object 500 times
// through ServerTM.Checkout in parallel. The lock-free index must beat the
// pinned throughput of the retired locked+clone read path (repository RWMutex
// plus a deep payload clone per Get: 17,213 ops/s and 395.1 allocs/op at 8
// readers, rev 7664ae9a32b1, EXPERIMENTS.md E15) by the 1.3x CI floor, and
// at least halve its allocations per checkout.
func TestServerCheckoutScalingBounds(t *testing.T) {
	const readers, rounds = 8, 500
	const pinnedOpsPerSec, pinnedAllocsPerOp = 17213, 395.1
	cat := catalog.New()
	for _, dot := range []*catalog.DOT{
		{Name: "cell", Attrs: []catalog.AttrDef{
			{Name: "name", Kind: catalog.KindString, Required: true},
			{Name: "data", Kind: catalog.KindString},
		}},
		{Name: "lib", Attrs: []catalog.AttrDef{{Name: "title", Kind: catalog.KindString, Required: true}},
			Components: []catalog.ComponentDef{{Name: "cells", DOT: "cell"}}},
	} {
		if err := cat.Register(dot); err != nil {
			t.Fatal(err)
		}
	}
	r, err := repo.Open(cat, repo.Options{Dir: t.TempDir(), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	scopes := lock.NewScopeTable()
	stm := NewServerTM(r, lock.NewManager(), scopes)
	dovs := make([]version.ID, readers)
	for i := range dovs {
		da := fmt.Sprintf("da-%d", i)
		lib := catalog.NewObject("lib").Set("title", catalog.Str(da))
		for p := 0; p < 96; p++ {
			data := make([]byte, 48)
			for j := range data {
				data[j] = 'a' + byte((p+j)%26)
			}
			lib.AddPart("cells", catalog.NewObject("cell").
				Set("name", catalog.Str(fmt.Sprintf("c%04d", p))).
				Set("data", catalog.Str(string(data))))
		}
		dovs[i] = version.ID(da + "/root")
		if err := r.CreateGraph(da); err != nil {
			t.Fatal(err)
		}
		if err := r.Checkin(&version.DOV{ID: dovs[i], DOT: "lib", DA: da, Object: lib, Status: version.StatusWorking}, true); err != nil {
			t.Fatal(err)
		}
		if err := scopes.Own(da, string(dovs[i])); err != nil {
			t.Fatal(err)
		}
		if err := stm.Begin(fmt.Sprintf("reader-%d", i), da); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i, id := range dovs {
		wg.Add(1)
		go func(reader string, id version.ID) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				if _, err := stm.Checkout(reader, id, false); err != nil {
					t.Errorf("%s round %d: %v", reader, n, err)
					return
				}
			}
		}(fmt.Sprintf("reader-%d", i), id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	opsPerSec := readers * rounds / elapsed.Seconds()
	allocsPerOp := float64(after.Mallocs-before.Mallocs) / (readers * rounds)
	t.Logf("mvcc: %.0f ops/s, %.1f allocs/op (%.2fx the pinned locked+clone throughput)",
		opsPerSec, allocsPerOp, opsPerSec/pinnedOpsPerSec)
	if opsPerSec < 1.3*pinnedOpsPerSec {
		t.Fatalf("mvcc read path %.0f ops/s vs pinned baseline %d ops/s: below the 1.3x CI floor", opsPerSec, pinnedOpsPerSec)
	}
	if allocsPerOp > pinnedAllocsPerOp/2 {
		t.Fatalf("mvcc read path allocates %.1f/op vs pinned baseline %.1f/op: less than 50%% reduction", allocsPerOp, pinnedAllocsPerOp)
	}
}

func TestCheckinWithoutWorkspace(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	if _, err := dop.Checkin(version.StatusWorking, true); !errors.Is(err, ErrNothingToCommit) {
		t.Fatalf("empty checkin = %v", err)
	}
}

func TestOperationsAfterEndRejected(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	if err := dop.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout("v0", false); !errors.Is(err, ErrDOPNotActive) {
		t.Fatalf("checkout after abort = %v", err)
	}
	if err := dop.Commit(); !errors.Is(err, ErrDOPNotActive) {
		t.Fatalf("commit after abort = %v", err)
	}
	if err := dop.Abort(); !errors.Is(err, ErrDOPNotActive) {
		t.Fatalf("double abort = %v", err)
	}
}

func TestBeginDuplicateDOPID(t *testing.T) {
	s := newStack(t, "")
	if _, err := s.tm.Begin("dup", "da1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tm.Begin("dup", "da1"); err == nil {
		t.Fatal("duplicate DOP id accepted")
	}
}

func TestPhaseStrings(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseActive:    "active",
		PhaseSuspended: "suspended",
		PhaseCommitted: "committed",
		PhaseAborted:   "aborted",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %s", p, p.String())
		}
	}
}

// TestPrepareAfterResolveRejected: a participant keeps no record of a
// resolved transaction, so the refusal of a re-prepare is the server-TM's —
// resolution removed the staged entry a vote would stand on — and no second
// version appears.
func TestPrepareAfterResolveRejected(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("dop-r", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.SetWorkspace(obj.Set("area", catalog.Float(80))); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, false); err != nil {
		t.Fatal(err)
	}
	versions := s.repo.DOVCount()
	if resp, err := s.part.Handler()(rpc.MethodPrepare, []byte("dop-r/ci1")); err != nil || string(resp) != "abort" {
		t.Fatalf("re-prepare of the resolved checkin = %q, %v; want an abort vote", resp, err)
	}
	if _, err := s.server.Prepare("dop-r/ci1"); !errors.Is(err, ErrNotStaged) {
		t.Fatalf("server-TM re-prepare = %v, want ErrNotStaged", err)
	}
	if n := s.repo.DOVCount(); n != versions {
		t.Fatalf("re-prepare changed the repository: %d → %d versions", versions, n)
	}
	if doubt := s.part.InDoubt(); len(doubt) != 0 {
		t.Fatalf("in doubt after resolution: %v", doubt)
	}
}
