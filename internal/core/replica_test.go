package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
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
	got, err := sb.Object(v0)
	if err != nil {
		t.Fatalf("synchronously committed version not at the standby: %v", err)
	}
	if a := catalog.NumAttr(got, "area"); a != 80 {
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

// bootCheckinSystem deploys one server (with a synchronously replicated warm
// standby when replicated), one started DA and one volatile workstation, and
// checks in a root version to derive from. A heartbeat > 0 sets the lease
// clock. The caller closes the system.
func bootCheckinSystem(t *testing.T, replicated bool, heartbeat time.Duration) (*System, *Workstation, version.ID) {
	t.Helper()
	opts := Options{
		Dir:           t.TempDir(),
		RegisterTypes: vlsi.RegisterCatalog,
		// Only the server-side commit path is under test; workstation-local
		// recovery logs would add private fsyncs that obscure it.
		VolatileWorkstations: true,
		Replicated:           replicated,
		SyncReplication:      replicated,
	}
	if heartbeat > 0 {
		opts.HeartbeatEvery = heartbeat
		opts.LeaseTTL = 10 * heartbeat
	}
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			sys.Close()
			t.Fatal(err)
		}
	}
	check(sys.CM().InitDesign(coop.Config{ID: "da", DOT: vlsi.DOTFloorplan, Designer: "alice"}))
	check(sys.CM().Start("da"))
	ws, err := sys.AddWorkstation("ws")
	check(err)
	root, err := planVersionErr(ws, "da", 100, "")
	check(err)
	// Measure sync mode, not the catch-up window.
	deadline := time.Now().Add(10 * time.Second)
	for replicated && sys.ReplHealth().Mode != "sync" {
		if time.Now().After(deadline) {
			check(errors.New("sender never reached sync mode"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return sys, ws, root
}

// checkinP99 times n chained checkin cycles on a fresh deployment and
// returns their p99.
func checkinP99(t *testing.T, replicated bool, n int) time.Duration {
	t.Helper()
	sys, ws, last := bootCheckinSystem(t, replicated, 0)
	defer sys.Close()
	samples := make([]time.Duration, n)
	for i := range samples {
		start := time.Now()
		id, err := planVersionErr(ws, "da", 100, last)
		if err != nil {
			t.Fatalf("checkin %d (replicated=%t): %v", i, replicated, err)
		}
		samples[i] = time.Since(start)
		last = id
	}
	slices.Sort(samples)
	return samples[int(0.99*float64(n-1))]
}

// TestSyncReplicationLatencyBounds is the gate on synchronous replication: a
// commit that waits for the standby's ack must stay within 1.5x of the
// unreplicated checkin p99, with a small absolute floor so fsync-queue noise
// cannot fail the gate. The ship rides the same group-commit batch as the
// local WAL write, so the ack adds one in-process round trip, not a second
// fsync on the commit path.
func TestSyncReplicationLatencyBounds(t *testing.T) {
	if raceEnabled {
		// Race instrumentation inflates the replication pump's CPU cost and
		// with it the latency ratios; the tests above cover correctness
		// under -race. The perf gate runs unraced.
		t.Skip("perf bounds are not meaningful under the race detector")
	}
	const checkins = 800
	// Shared single-CPU runners see CPU theft and filesystem-journal
	// interference from sibling processes; retries separate a genuinely
	// regressed ship path from a noisy window.
	const attempts = 3
	var base, synced time.Duration
	pass := false
	for a := 0; a < attempts && !pass; a++ {
		base = checkinP99(t, false, checkins)
		synced = checkinP99(t, true, checkins)
		// Absolute floor: both configurations are fsync-bound, so a single
		// slow journal commit inside the sync window would fail a pure ratio
		// on noise alone.
		bound := max(base*3/2, base+3*time.Millisecond)
		t.Logf("attempt %d: unreplicated p99 %v, sync p99 %v (bound %v)", a+1, base, synced, bound)
		pass = synced <= bound
	}
	if !pass {
		t.Fatalf("sync-replicated checkin p99 %v vs unreplicated %v regressed past the 1.5x acceptance bound", synced, base)
	}
}

// timeTakeover commits 20 checkins on a synchronously replicated deployment,
// kills the primary without restart and returns the time until the
// workstation's next checkin commits at the promoted standby; the epoch must
// be bumped.
func timeTakeover(t *testing.T, heartbeat time.Duration) time.Duration {
	t.Helper()
	sys, ws, last := bootCheckinSystem(t, true, heartbeat)
	defer sys.Close()
	for i := 0; i < 20; i++ {
		var err error
		if last, err = planVersionErr(ws, "da", 100, last); err != nil {
			t.Fatalf("warm checkin %d: %v", i, err)
		}
	}
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for {
		if _, err := planVersionErr(ws, "da", 100, last); err == nil {
			break
		}
		if time.Since(start) > 30*time.Second {
			t.Fatal("no checkin committed at the standby within 30s of the primary kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	took := time.Since(start)
	if h := sys.ReplHealth(); !h.StandbyPromoted || h.Epoch == 0 {
		t.Fatalf("checkin committed but the standby was not promoted under a new epoch: %+v", h)
	}
	return took
}

// TestHeartbeatFailoverTakeoverBound gates the designer-visible outage of a
// primary kill: heartbeat-driven detection, standby promotion, epoch
// adoption and session rejoin must land the next committed checkin within 2x
// the heartbeat period (the bound the scenario matrix holds takeover to).
func TestHeartbeatFailoverTakeoverBound(t *testing.T) {
	if raceEnabled {
		t.Skip("perf bounds are not meaningful under the race detector")
	}
	const heartbeat = 50 * time.Millisecond
	const attempts = 3
	var took time.Duration
	for a := 0; a < attempts; a++ {
		took = timeTakeover(t, heartbeat)
		t.Logf("attempt %d: takeover in %v (heartbeat %v)", a+1, took, heartbeat)
		if took <= 2*heartbeat {
			return
		}
	}
	t.Fatalf("client-driven takeover took %v, over the 2x heartbeat bound (%v)", took, 2*heartbeat)
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
	if _, err := planVersionErr(ws, "da1", 70, ""); err != nil {
		t.Fatalf("checkin at promoted standby: %v", err)
	}
}

// planVersionErr runs one full checkin cycle (DOP begin, derive checkout of
// parent unless it is empty, 2PC checkin, commit) and returns its error
// instead of failing the test: split-brain and takeover assertions want
// both outcomes. A failed cycle aborts its DOP.
func planVersionErr(ws *Workstation, da string, area float64, parent version.ID) (version.ID, error) {
	dop, err := ws.Begin("", da)
	if err != nil {
		return "", err
	}
	id, err := func() (version.ID, error) {
		if parent != "" {
			if _, err := dop.Checkout(parent, true); err != nil {
				return "", err
			}
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).
			Set("cell", catalog.Str("O")).
			Set("area", catalog.Float(area))
		if err := dop.SetWorkspace(obj); err != nil {
			return "", err
		}
		return dop.Checkin(version.StatusWorking, parent == "")
	}()
	if err != nil {
		_ = dop.Abort() // best effort: the cycle's error is what the caller sees
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

// TestUnpromotedStandbyCheckpoints: the standby's repository runs the same
// checkpointer as the primary's, so a follower that is never promoted
// compacts its shipped log instead of keeping the whole history. A status
// change made at the primary reaches the standby and survives a standby
// restart from the compacted state.
func TestUnpromotedStandbyCheckpoints(t *testing.T) {
	const threshold, segment = 64 << 10, 16 << 10
	sys, err := bootSystem(Options{
		Dir: t.TempDir(), RegisterTypes: vlsi.RegisterCatalog,
		Replicated: true, SyncReplication: true, SegmentBytes: segment,
	}, rpc.FaultPlan{}, threshold)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	startDA(t, sys, "da1", areaSpec(1000))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	awaitf(t, 5*time.Second, "sync mode", func() bool { return sys.ReplHealth().Mode == "sync" })

	cell := strings.Repeat("c", 8<<10)
	var last version.ID
	for i := 0; i < 64; i++ {
		dop, err := ws.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).Set("cell", catalog.Str(cell)).Set("area", catalog.Float(float64(i)))
		if err := dop.SetWorkspace(obj); err != nil {
			t.Fatal(err)
		}
		if last, err = dop.Checkin(version.StatusWorking, true); err != nil {
			t.Fatal(err)
		}
		if err := dop.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	sb := sys.StandbyRepo()
	// Every payload is logged twice (staged, then installed): about 1 MiB
	// reached the standby's log. Once the checkpointer has caught up, what
	// is left on disk is below the threshold plus the segment the mark
	// falls in.
	awaitf(t, 10*time.Second, "the standby's checkpoint", func() bool {
		return sb.Checkpoints() > 0 && sb.Log().DiskBytes() < threshold+2*segment
	})
	if logged := sb.LogSize(); logged < 16*threshold {
		t.Fatalf("the standby logged %d bytes, too few to show compaction", logged)
	}

	if err := sys.PrimaryRepo().SetStatus(last, version.StatusFinal); err != nil {
		t.Fatal(err)
	}
	if v, err := sb.Get(last); err != nil || v.Status != version.StatusFinal {
		t.Fatalf("standby copy after a synchronously shipped status change: %+v, %v", v, err)
	}
	want := sys.PrimaryRepo().DOVCount()
	if err := sys.CrashStandby(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartStandby(); err != nil {
		t.Fatal(err)
	}
	sb = sys.StandbyRepo()
	if sb.SnapshotLSN() == 0 {
		t.Fatal("the restarted standby loaded no snapshot chain")
	}
	if v, err := sb.Get(last); err != nil || v.Status != version.StatusFinal {
		t.Fatalf("restarted standby copy: %+v, %v; want status final", v, err)
	}
	if got := sb.DOVCount(); got != want {
		t.Fatalf("restarted standby holds %d DOVs, the primary %d", got, want)
	}
	if err := sb.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
