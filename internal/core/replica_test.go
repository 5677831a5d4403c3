package core

import (
	"errors"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/rpc"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// newReplicatedSystem boots a warm-standby deployment with a fast heartbeat
// so failover tests converge quickly.
func newReplicatedSystem(t *testing.T, sync bool) *System {
	t.Helper()
	sys, err := NewSystem(Options{
		Dir:             t.TempDir(),
		RegisterTypes:   vlsi.RegisterCatalog,
		Replicated:      true,
		SyncReplication: sync,
		LeaseTTL:        time.Second,
		HeartbeatEvery:  15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// awaitf polls cond until it holds or the deadline passes.
func awaitf(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSyncReplicationShipsCommitsLive(t *testing.T) {
	sys := newReplicatedSystem(t, true)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the sender has caught the standby up and entered sync mode:
	// from here on every commit is acknowledged by the standby before the
	// workstation sees it succeed.
	awaitf(t, 5*time.Second, "sync mode", func() bool { return sys.ReplHealth().Mode == "sync" })

	v0 := planOnce(t, ws, "da1", 80, "")
	// No polling: synchronous shipping means the standby already applied the
	// commit to its live follower state.
	sb := sys.StandbyRepo()
	if sb == nil {
		t.Fatal("no standby repository")
	}
	got, err := sb.Get(v0)
	if err != nil {
		t.Fatalf("synchronously committed version not at the standby: %v", err)
	}
	if a := catalog.NumAttr(got.Object, "area"); a != 80 {
		t.Fatalf("standby copy area = %g, want 80", a)
	}
	if !sb.Follower() {
		t.Fatal("standby repository should still be a follower")
	}
	if st := sys.StandbyReceiverStats(); st.Batches == 0 {
		t.Fatal("receiver ingested nothing")
	}
	h := sys.ReplHealth()
	if h.Role != "primary" || h.Mode != "sync" || h.StandbyPromoted {
		t.Fatalf("ReplHealth = %+v", h)
	}
}

func TestHeartbeatFailoverPromotesStandbyWithoutLosingWork(t *testing.T) {
	sys := newReplicatedSystem(t, true)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	awaitf(t, 5*time.Second, "sync mode", func() bool { return sys.ReplHealth().Mode == "sync" })
	v0 := planOnce(t, ws, "da1", 150, "")

	// The health RPC reports the primary's role and epoch pre-failover.
	h0, err := ws.TM().ServerHealthFull()
	if err != nil {
		t.Fatal(err)
	}
	if h0.Role != "primary" || h0.Epoch != 0 {
		t.Fatalf("pre-failover health = %+v", h0)
	}

	// The primary dies. The workstation's heartbeat loop notices, promotes
	// the standby and moves its session over — no designer intervention.
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	awaitf(t, 5*time.Second, "client failover", func() bool {
		return ws.TM().ServerAddr() == StandbyAddr
	})

	rh := sys.ReplHealth()
	if !rh.StandbyPromoted || rh.Epoch != 1 {
		t.Fatalf("post-failover ReplHealth = %+v", rh)
	}
	// Nothing committed was lost: the replicated repository holds v0 and now
	// serves as the active repository.
	if _, err := sys.Repo().Get(v0); err != nil {
		t.Fatalf("committed version lost across failover: %v", err)
	}
	// The designer keeps working: derive from v0 at the new primary, then
	// evaluate through the rebuilt cooperation manager.
	v1 := planOnce(t, ws, "da1", 80, v0)
	q, err := sys.CM().Evaluate("da1", v1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Final() {
		t.Fatalf("evaluation at promoted standby: %+v", q)
	}
	h1, err := ws.TM().ServerHealthFull()
	if err != nil {
		t.Fatal(err)
	}
	if h1.Role != "primary" || h1.Epoch != 1 {
		t.Fatalf("post-failover health = %+v", h1)
	}
	g, err := sys.Repo().Graph("da1")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := g.IsAncestor(v0, v1); err != nil || !ok {
		t.Fatalf("derivation lost across failover: %t, %v", ok, err)
	}
}

func TestDeposedPrimaryIsFencedOut(t *testing.T) {
	sys := newReplicatedSystem(t, true)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	awaitf(t, 5*time.Second, "sync mode", func() bool { return sys.ReplHealth().Mode == "sync" })
	planOnce(t, ws, "da1", 80, "")

	// A partition separates the workstations from the primary — which stays
	// alive. The heartbeat loop promotes the standby: split brain, both
	// "primaries" running.
	sys.Transport().Partition(ServerAddr)
	awaitf(t, 5*time.Second, "client failover", func() bool {
		return ws.TM().ServerAddr() == StandbyAddr
	})
	sys.Transport().Heal(ServerAddr)

	// The deposed primary cannot commit anything: its next WAL batch is
	// refused by the promoted standby's epoch fence, which fail-stops the
	// repository before a split-brain write is acknowledged.
	sys.mu.Lock()
	deposed := sys.server
	sys.mu.Unlock()
	v := &version.DOV{
		DOT: vlsi.DOTFloorplan, DA: "da1",
		Object: catalog.NewObject(vlsi.DOTFloorplan).Set("cell", catalog.Str("X")).Set("area", catalog.Float(9)),
		Status: version.StatusWorking,
	}
	v.ID = deposed.Repo.NextID()
	err = deposed.Repo.Checkin(v, false)
	if !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("deposed primary checkin error = %v, want ErrStaleEpoch", err)
	}
	// The promoted side keeps serving.
	if _, err := planVersionErr(ws, "da1", 70); err != nil {
		t.Fatalf("checkin at promoted standby: %v", err)
	}
}

// planVersionErr is a minimal root-less checkin that returns its error
// instead of failing the test (split-brain assertions want both outcomes).
func planVersionErr(ws *Workstation, da string, area float64) (version.ID, error) {
	dop, err := ws.Begin("", da)
	if err != nil {
		return "", err
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str("O")).
		Set("area", catalog.Float(area))
	if err := dop.SetWorkspace(obj); err != nil {
		return "", err
	}
	id, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		return "", err
	}
	return id, dop.Commit()
}

func TestStandbyCrashDegradesSyncAndRecovers(t *testing.T) {
	sys := newReplicatedSystem(t, true)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	awaitf(t, 5*time.Second, "sync mode", func() bool { return sys.ReplHealth().Mode == "sync" })

	// The standby dies. Synchronous replication degrades to trailing mode:
	// the primary keeps committing instead of blocking the designers.
	if err := sys.CrashStandby(); err != nil {
		t.Fatal(err)
	}
	v1 := planOnce(t, ws, "da1", 80, "")
	h := sys.ReplHealth()
	if h.Mode != "trailing" || h.Degrades == 0 || !h.SyncConfigured {
		t.Fatalf("ReplHealth during standby outage = %+v", h)
	}

	// The standby restarts from its durable state; the sender reconnects,
	// catches it up and returns to sync mode.
	if err := sys.RestartStandby(); err != nil {
		t.Fatal(err)
	}
	awaitf(t, 10*time.Second, "resync after standby restart", func() bool {
		return sys.ReplHealth().Mode == "sync"
	})
	awaitf(t, 5*time.Second, "standby caught up", func() bool {
		sb := sys.StandbyRepo()
		if sb == nil {
			return false
		}
		_, err := sb.Get(v1)
		return err == nil
	})
}

func TestReplicationConfigAndLifecycleErrors(t *testing.T) {
	if _, err := NewSystem(Options{RegisterTypes: vlsi.RegisterCatalog, Replicated: true}); err == nil {
		t.Fatal("replication without a data directory accepted")
	}
	plain := newSystem(t, "")
	if _, err := plain.Promote(); err == nil {
		t.Fatal("promote on unreplicated system accepted")
	}
	if err := plain.CrashStandby(); err == nil {
		t.Fatal("standby crash on unreplicated system accepted")
	}
	if err := plain.RestartStandby(); err == nil {
		t.Fatal("standby restart on unreplicated system accepted")
	}

	sys := newReplicatedSystem(t, false)
	if err := sys.RestartStandby(); err == nil {
		t.Fatal("restart of running standby accepted")
	}
	e1, err := sys.Promote()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sys.Promote()
	if err != nil || e2 != e1 {
		t.Fatalf("second promote = (%d, %v), want idempotent (%d, nil)", e2, err, e1)
	}
	if err := sys.CrashStandby(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartStandby(); err == nil {
		t.Fatal("promoted standby restarted as follower")
	}
}
