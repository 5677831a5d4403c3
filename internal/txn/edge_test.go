package txn

import (
	"errors"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/lock"
	"concord/internal/rpc"
	"concord/internal/version"
)

func TestCheckoutUnknownDOV(t *testing.T) {
	s := newStack(t, "")
	s.scopes.GrantUse("da1", "ghost") // in scope but not stored
	dop, _ := s.tm.Begin("", "da1")
	if _, err := dop.Checkout("ghost", false); err == nil {
		t.Fatal("checkout of missing DOV succeeded")
	}
	// A failed derive-checkout must not leave a dangling derivation lock.
	if _, err := dop.Checkout("ghost", true); err == nil {
		t.Fatal("derive checkout of missing DOV succeeded")
	}
	if got := s.locks.Holds(dop.ID(), "dov/ghost"); got != 0 {
		t.Fatalf("dangling lock mode %s", got)
	}
}

func TestMultipleCheckinsOneDOP(t *testing.T) {
	// "Stepwise improvement": a DOP may check in several successive states.
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(100))
	dop.SetWorkspace(obj) //nolint:errcheck
	v1, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(90))
	v2, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatal("checkins produced the same version ID")
	}
	if dop.LastResult() != v2 {
		t.Fatalf("LastResult = %s, want %s", dop.LastResult(), v2)
	}
	if s.repo.DOVCount() != 2 {
		t.Fatalf("DOV count = %d", s.repo.DOVCount())
	}
}

func TestSavepointRestoreNilWorkspace(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	// Savepoint before any workspace exists.
	if err := dop.Save("empty"); err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(1))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Restore("empty"); err != nil {
		t.Fatal(err)
	}
	if dop.Workspace() != nil {
		t.Fatal("restore to pre-workspace state should clear workspace")
	}
}

func TestSavepointOverwriteSameName(t *testing.T) {
	s := newStack(t, "")
	dop, _ := s.tm.Begin("", "da1")
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(10))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Save("sp"); err != nil {
		t.Fatal(err)
	}
	dop.Workspace().Set("area", catalog.Float(20))
	if err := dop.Save("sp"); err != nil {
		t.Fatal(err)
	}
	dop.Workspace().Set("area", catalog.Float(30))
	if err := dop.Restore("sp"); err != nil {
		t.Fatal(err)
	}
	if got := catalog.NumAttr(dop.Workspace(), "area"); got != 20 {
		t.Fatalf("area = %g, want 20 (latest save wins)", got)
	}
	if len(dop.Savepoints()) != 1 {
		t.Fatalf("savepoints = %v", dop.Savepoints())
	}
}

func TestSuspendedDOPSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	dop, err := s.tm.Begin("susp-dop", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(7))
	dop.SetWorkspace(obj) //nolint:errcheck
	if err := dop.Suspend(); err != nil {
		t.Fatal(err)
	}
	s.tm.Crash()
	rec := newTMAt(t, s, dir)
	if len(rec) != 1 {
		t.Fatalf("recovered %d", len(rec))
	}
	rdop := rec[0]
	if rdop.Phase() != PhaseSuspended {
		t.Fatalf("phase = %s, want suspended preserved", rdop.Phase())
	}
	if err := rdop.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := catalog.NumAttr(rdop.Workspace(), "area"); got != 7 {
		t.Fatalf("area after resume = %g", got)
	}
}

// newTMAt opens a second client-TM incarnation against the same directory,
// returning the recovered DOP contexts. The RPC client id differs from the
// first incarnation's so request IDs never collide in the dedup cache.
func newTMAt(t *testing.T, s *stack, dir string) []*DOP {
	t.Helper()
	client := rpc.NewClient(s.trans, "ws1-incarnation-2")
	client.Backoff = 0
	tm, recovered, err := NewClientTM("ws1", client, serverAddr, dir+"/ws1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close() })
	return recovered
}

func TestDerivationFromUsageVisibleForeignDOV(t *testing.T) {
	// The paper's cross-DA case: "the DOPs were initiated by multiple DAs
	// with the shared DOV derived in one DA and with the other DAs being
	// authorized to read this DOV due to established usage relationships.
	// ... the DOPs ... derive separate new versions that make it to their
	// own DAs' derivation graphs" (Sect. 5.2).
	s := newStack(t, "")
	v0 := s.seedDOV(t, "shared", 100)
	if err := s.repo.CreateGraph("da2"); err != nil {
		t.Fatal(err)
	}
	// Usage grant: da2 may read da1's version.
	s.scopes.GrantUse("da2", string(v0))

	dop, err := s.tm.Begin("", "da2")
	if err != nil {
		t.Fatal(err)
	}
	in, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatalf("checkout of usage-visible DOV: %v", err)
	}
	in.Set("area", catalog.Float(80))
	dop.SetWorkspace(in) //nolint:errcheck
	id, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatalf("checkin derived from foreign DOV: %v", err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	// The derived version lives in da2's graph with the foreign parent
	// recorded; da1's graph is untouched.
	g2, _ := s.repo.Graph("da2")
	if !g2.Contains(id) {
		t.Fatal("derived version not in da2's graph")
	}
	got, _ := s.repo.Get(id)
	if len(got.Parents) != 1 || got.Parents[0] != v0 {
		t.Fatalf("parents = %v", got.Parents)
	}
	g1, _ := s.repo.Graph("da1")
	if g1.Contains(id) {
		t.Fatal("derived version leaked into da1's graph")
	}
	// Write conflicts are prevented: graphs stay disjoint and acyclic.
	if err := s.repo.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseLockUnknownDOP(t *testing.T) {
	s := newStack(t, "")
	if err := s.server.ReleaseDerivationLock("ghost-dop", "v"); err == nil {
		t.Fatal("release for unknown DOP accepted")
	}
	if _, err := s.server.Checkout("ghost-dop", "v", false); !errors.Is(err, ErrUnknownDOP) {
		t.Fatalf("checkout for unknown DOP = %v", err)
	}
}

// TestCommitScopeOwnershipFailureRetries pins the post-checkin tail contract
// of ServerTM.Commit: once the version is durably installed, a scope-
// ownership failure is surfaced as an error while the staged entry is
// retained, so a retried Commit converges through the idempotent duplicate
// path instead of losing the tail (or double-installing the version).
func TestCommitScopeOwnershipFailureRetries(t *testing.T) {
	s := newStack(t, "")
	if err := s.server.Begin("dop1", "da1"); err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(42))
	v := &version.DOV{ID: "vtail", DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := s.server.Stage("dop1", "txtail", v, true, nil); err != nil {
		t.Fatal(err)
	}
	// A foreign owner on the version's ID makes scopes.Own fail after the
	// checkin has already committed.
	if err := s.scopes.Own("intruder", "vtail"); err != nil {
		t.Fatal(err)
	}
	err := s.server.Commit("txtail")
	if err == nil {
		t.Fatal("Commit succeeded although scope ownership failed")
	}
	if ok, rerr := s.repo.Exists("vtail"); rerr != nil || !ok {
		t.Fatalf("version must be durably installed despite the tail failure (ok=%t err=%v)", ok, rerr)
	}
	// The retry re-runs only the tail (still failing while the intruder
	// holds the ID) and must not report a duplicate-DOV error.
	if err := s.server.Commit("txtail"); err == nil {
		t.Fatal("retry succeeded although the intruder still owns the ID")
	} else if errors.Is(err, version.ErrDuplicateDOV) {
		t.Fatalf("retry surfaced the duplicate install instead of the tail failure: %v", err)
	}
	// Once the conflict clears, the retried Commit converges: ownership
	// lands with the version's DA and the staged entry is consumed.
	s.scopes.ReleaseDA("intruder")
	if err := s.server.Commit("txtail"); err != nil {
		t.Fatalf("Commit after conflict cleared: %v", err)
	}
	if owner, ok := s.scopes.Owner("vtail"); !ok || owner != "da1" {
		t.Fatalf("owner = %q/%t, want da1", owner, ok)
	}
	if s.repo.DOVCount() != 1 {
		t.Fatalf("DOV count = %d, want 1 (no double install)", s.repo.DOVCount())
	}
	// Idempotence after completion: a late duplicate Commit is a no-op.
	if err := s.server.Commit("txtail"); err != nil {
		t.Fatalf("late duplicate Commit: %v", err)
	}
}

// TestPlainCheckoutKeepsDerivationLock: a DOP that holds the derivation lock
// on a version and then checks the same version out plainly must still hold
// it afterwards. The plain checkout's short S lock is a no-op under the
// owner's own D, and releasing it used to drop the owner's whole grant, so a
// second DOP could then derive from the version too.
func TestPlainCheckoutKeepsDerivationLock(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	s.server.LockTimeout = 50 * time.Millisecond
	for _, dop := range []string{"dop1", "dop2"} {
		if err := s.server.Begin(dop, "da1"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.server.Checkout("dop1", v0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.server.Checkout("dop1", v0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.server.Checkout("dop2", v0, true); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("second DOP derive-checkout after the holder's plain checkout: err = %v, want %v", err, lock.ErrTimeout)
	}
	// Over the wire, through the workstation's DOP, the same holds.
	d1, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.server.ReleaseDerivationLock("dop1", v0); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.server.Checkout("dop2", v0, true); !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("derive-checkout beside a workstation DOP that re-read its input: err = %v, want %v", err, lock.ErrTimeout)
	}
}
