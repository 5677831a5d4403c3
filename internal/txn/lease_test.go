package txn

import (
	"errors"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/lock"
	"concord/internal/rpc"
	"concord/internal/version"
)

// newSecondTM attaches another workstation's client-TM to an existing stack.
func newSecondTM(t *testing.T, s *stack, ws string) *ClientTM {
	t.Helper()
	client := rpc.NewClient(s.trans, ws)
	client.Backoff = 0
	tm, recovered, err := NewClientTM(ws, client, serverAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh TM recovered %d DOPs", len(recovered))
	}
	t.Cleanup(func() { tm.Close() })
	return tm
}

func TestLeaseEstablishedByBeginAndRenewedByHeartbeat(t *testing.T) {
	s := newStack(t, "")
	if s.server.HasLease("ws1") {
		t.Fatal("lease exists before any Begin")
	}
	if _, err := s.tm.Begin("d1", "da1"); err != nil {
		t.Fatal(err)
	}
	if !s.server.HasLease("ws1") {
		t.Fatal("Begin did not establish a workstation lease")
	}
	if err := s.server.Heartbeat("ws1"); err != nil {
		t.Fatalf("heartbeat under a live lease: %v", err)
	}
	if err := s.server.Heartbeat("ghost"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("heartbeat for unknown workstation = %v, want ErrNoLease", err)
	}
	// The client-side heartbeat travels the wire and decodes the sentinel.
	if err := s.tm.heartbeat(time.Second); err != nil {
		t.Fatalf("wire heartbeat: %v", err)
	}
}

func TestReaperReclaimsExpiredWorkstation(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 40 * time.Millisecond
	v0 := s.seedDOV(t, "v0", 100)
	s.wireCallbacks(t, s.tm, "cb/ws1")

	dop, err := s.tm.Begin("d1", "da1")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the derivation lock on v0 and stage (but never prepare) a branch.
	if _, err := dop.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	if s.server.CacheRegistrations() == 0 {
		t.Fatal("the checkout registered no cache callback to reclaim")
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(50))
	orphan := &version.DOV{ID: "vorphan", DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := s.server.Stage("d1", "tx-orphan", orphan, true, nil); err != nil {
		t.Fatal(err)
	}

	time.Sleep(80 * time.Millisecond)
	if n := s.server.ReapExpiredLeases(); n != 1 {
		t.Fatalf("reaped %d workstations, want 1", n)
	}
	if s.server.HasLease("ws1") {
		t.Fatal("lease survived the reaper")
	}
	if err := s.server.Heartbeat("ws1"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("heartbeat after reap = %v, want ErrNoLease", err)
	}
	// The dead endpoint's callback registrations are gone: no invalidation
	// is queued for it any more.
	if n := s.server.CacheRegistrations(); n != 0 {
		t.Fatalf("%d cache registrations survived the reap", n)
	}
	// Presumed abort: the unprepared staged branch is gone.
	sh := s.server.stagedShard("tx-orphan")
	sh.mu.Lock()
	_, still := sh.m["tx-orphan"]
	sh.mu.Unlock()
	if still {
		t.Fatal("unprepared staged branch survived the reap")
	}
	// The derivation lock was bulk-released: a second workstation acquires
	// it well inside the 300ms lock timeout instead of queueing forever.
	tm2 := newSecondTM(t, s, "ws2")
	dop2, err := tm2.Begin("d2", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop2.Checkout(v0, true); err != nil {
		t.Fatalf("second workstation could not derive after reap: %v", err)
	}
}

func TestPreparedBranchPinnedAcrossReap(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 40 * time.Millisecond
	if err := s.server.beginWS("d1", "da1", "wsx"); err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(60))
	v := &version.DOV{ID: "vpin", DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := s.server.Stage("d1", "tx-pin", v, true, nil); err != nil {
		t.Fatal(err)
	}
	if vote, err := s.server.Prepare("tx-pin"); err != nil || vote != rpc.VoteCommit {
		t.Fatalf("Prepare = (%v, %v), want VoteCommit", vote, err)
	}

	time.Sleep(80 * time.Millisecond)
	if n := s.server.ReapExpiredLeases(); n != 1 {
		t.Fatalf("reaped %d workstations, want 1", n)
	}
	// The prepared branch is pinned: the dead coordinator's log may hold a
	// durable COMMIT, so the recovered workstation must be able to land it.
	if err := s.server.Commit("tx-pin"); err != nil {
		t.Fatalf("Commit of prepared branch after reap: %v", err)
	}
	if ok, err := s.repo.Exists("vpin"); err != nil || !ok {
		t.Fatalf("committed version missing after reap (ok=%t err=%v)", ok, err)
	}
}

func TestRejoinRestoresSessionAndResumesDOP(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 40 * time.Millisecond
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("d1", "da1")
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(80 * time.Millisecond)
	if n := s.server.ReapExpiredLeases(); n != 1 {
		t.Fatalf("reaped %d workstations, want 1", n)
	}
	if err := s.tm.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if !s.server.HasLease("ws1") {
		t.Fatal("Rejoin did not re-establish the lease")
	}
	// The re-registered DOP completes a full checkout → modify → checkin.
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatalf("checkout after rejoin: %v", err)
	}
	obj.Set("area", catalog.Float(80))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	newID, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatalf("checkin after rejoin: %v", err)
	}
	if ok, err := s.repo.Exists(newID); err != nil || !ok {
		t.Fatalf("checked-in version missing after rejoin (ok=%t err=%v)", ok, err)
	}
}

// TestRejoinRetakesDerivationLocks: the reaper released a DOP's derivation
// locks. Rejoin takes them again, or — when another DOP derives from one of
// the versions by then — ends the DOP at the server, so it cannot check in a
// derivation beside the other's; a later Reattach brings it back whole.
func TestRejoinRetakesDerivationLocks(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 40 * time.Millisecond
	s.server.LockTimeout = 50 * time.Millisecond
	v0 := s.seedDOV(t, "v0", 100)
	v1 := s.seedDOV(t, "v1", 200)
	dop, err := s.tm.Begin("d1", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v1, true); err != nil {
		t.Fatal(err)
	}
	dop.SetWorkspace(obj.Set("area", catalog.Float(80))) //nolint:errcheck // the DOP is active
	held := func(want lock.Mode) {
		t.Helper()
		for _, id := range []version.ID{v0, v1} {
			if m := s.locks.Holds("d1", "dov/"+string(id)); m != want {
				t.Fatalf("d1's lock on %s = %v, want %v", id, m, want)
			}
		}
	}
	reap := func() {
		t.Helper()
		time.Sleep(80 * time.Millisecond)
		if n := s.server.ReapExpiredLeases(); n != 1 {
			t.Fatalf("reaped %d workstations, want 1", n)
		}
		held(0)
	}

	reap()
	if err := s.tm.Rejoin(); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	held(lock.D)

	reap()
	rival, err := newSecondTM(t, s, "ws2").Begin("d2", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rival.Checkout(v1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.Rejoin(); err == nil {
		t.Fatal("Rejoin took back a derivation lock another DOP holds")
	}
	held(0)
	if _, err := dop.Checkin(version.StatusWorking, false); !errors.Is(err, ErrUnknownDOP) {
		t.Fatalf("Checkin of the DOP that lost its lock = %v, want %v", err, ErrUnknownDOP)
	}

	if err := rival.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.Reattach(dop); err != nil {
		t.Fatalf("Reattach once the rival ended: %v", err)
	}
	held(lock.D)
	if _, err := dop.Checkin(version.StatusWorking, false); err != nil {
		t.Fatalf("Checkin after Reattach: %v", err)
	}
}

func TestHeartbeatLoopRenewsAndAutoRejoins(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 60 * time.Millisecond
	if _, err := s.tm.Begin("d1", "da1"); err != nil {
		t.Fatal(err)
	}
	s.tm.StartHeartbeat(15 * time.Millisecond)
	defer s.tm.StopHeartbeat()

	// Renewal: the reaper finds nothing to reclaim while heartbeats flow.
	time.Sleep(150 * time.Millisecond)
	if n := s.server.ReapExpiredLeases(); n != 0 {
		t.Fatalf("reaper reclaimed %d live workstations", n)
	}
	// Forget the lease server-side (as a server restart would): the next
	// heartbeat sees ErrNoLease and the loop re-joins on its own.
	s.server.leaseMu.Lock()
	delete(s.server.leases, "ws1")
	s.server.leaseMu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for !s.server.HasLease("ws1") {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop did not auto-rejoin after lease loss")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHeartbeatDropFaultExpiresLease(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 50 * time.Millisecond
	s.server.Faults = fault.New()
	if _, err := s.tm.Begin("d1", "da1"); err != nil {
		t.Fatal(err)
	}
	s.server.Faults.Arm(FaultHeartbeatDrop, errors.New("injected heartbeat loss"))
	if err := s.server.Heartbeat("ws1"); err == nil {
		t.Fatal("armed heartbeat-drop point did not refuse the renewal")
	}
	time.Sleep(100 * time.Millisecond)
	// An armed lease-expired point delays the reaper pass.
	s.server.Faults.Arm(FaultLeaseExpired, errors.New("injected reaper delay"))
	if n := s.server.ReapExpiredLeases(); n != 0 {
		t.Fatalf("delayed reaper pass reclaimed %d workstations", n)
	}
	s.server.Faults.Disarm(FaultLeaseExpired)
	if n := s.server.ReapExpiredLeases(); n != 1 {
		t.Fatalf("reaped %d workstations, want 1", n)
	}
}

func TestEndDOPDropsLeaseMembership(t *testing.T) {
	s := newStack(t, "")
	s.server.LeaseTTL = 40 * time.Millisecond
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("d1", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	if err := dop.Abort(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	// The lease itself still expires, but its DOP set is empty: the reap
	// must not touch anything on behalf of the ended DOP.
	if n := s.server.ReapExpiredLeases(); n != 1 {
		t.Fatalf("reaped %d workstations, want 1", n)
	}
}

func TestHealthRPCReportsOK(t *testing.T) {
	s := newStack(t, "")
	mode, cause, err := s.tm.ServerHealth()
	if err != nil {
		t.Fatalf("ServerHealth: %v", err)
	}
	if mode != "ok" || cause != "" {
		t.Fatalf("health = (%q, %q), want (ok, \"\")", mode, cause)
	}
}

// TestCheckoutBudgetBoundsLockWait pins deadline propagation end to end: the
// client's per-call budget travels the wire and caps the server-side
// derivation-lock wait, so a short budget fails fast even when the server's
// own LockTimeout is generous.
func TestCheckoutBudgetBoundsLockWait(t *testing.T) {
	s := newStack(t, "")
	s.server.LockTimeout = 5 * time.Second
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("d1", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	tm2 := newSecondTM(t, s, "ws2")
	tm2.OpBudget = 100 * time.Millisecond
	dop2, err := tm2.Begin("d2", "da1")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := dop2.Checkout(v0, true); err == nil {
		t.Fatal("conflicting derivation succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("budgeted checkout took %v; the 100ms budget did not bound the 5s lock wait", elapsed)
	}
}
