package txn

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/lock"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
)

// standby is a warm-standby server for client-failover tests: its own
// repository (seeded as replication would have left it), a second server-TM,
// and a handler that additionally answers repl.MethodPromote the way core's
// receiver does — everything the client-TM's takeover needs, without the
// shipping machinery (internal/repl tests that half).
type standby struct {
	repo       *repo.Repository
	server     *ServerTM
	promotions atomic.Uint64
}

// newStandby serves the standby at addr, promoting to the given epoch. The
// endpoint is epoch-fenced like a real server, so the test also proves the
// client's stamped epoch passes the fence after takeover.
func newStandby(t *testing.T, s *stack, addr string, epoch uint64) *standby {
	t.Helper()
	r, err := repo.Open(s.cat, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	scopes := lock.NewScopeTable()
	srv := NewServerTM(r, lock.NewManager(), scopes)
	srv.LockTimeout = 300 * time.Millisecond
	participant, err := rpc.NewParticipant(srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb := &standby{repo: r, server: srv}
	dh := srv.DeadlineHandler(participant)
	h := func(deadline time.Time, method string, payload []byte) ([]byte, error) {
		if method == repl.MethodPromote {
			sb.promotions.Add(1)
			w := binenc.NewWriter(10)
			w.U64(epoch)
			return w.Bytes(), nil
		}
		return dh(deadline, method, payload)
	}
	fenced := rpc.DedupDeadlineFenced(h, rpc.EpochFence(func() uint64 { return epoch }))
	if err := rpc.ServeWithDeadline(s.trans, addr, fenced); err != nil {
		t.Fatal(err)
	}
	return sb
}

// seedStandbyDOV installs a version in the standby the way replication would
// have: same ID, same scope ownership as the primary's copy.
func (sb *standby) seedDOV(t *testing.T, id string, area float64) {
	t.Helper()
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(area))
	v := &version.DOV{ID: version.ID(id), DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := sb.repo.Checkin(v, true); err != nil {
		t.Fatal(err)
	}
	if err := sb.server.Scopes().Own("da1", id); err != nil {
		t.Fatal(err)
	}
}

func TestFailoverSwitchesServerAndResumesDOPs(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)
	sb := newStandby(t, s, "standby", 2)
	sb.seedDOV(t, "v0", 100)
	s.tm.SetStandbyAddr("standby")

	dop, err := s.tm.Begin("dF", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}

	// The primary goes dark; the client drives the takeover.
	s.trans.Partition(serverAddr)
	if err := s.tm.Failover(); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got := s.tm.ServerAddr(); got != "standby" {
		t.Fatalf("server after failover = %q, want standby", got)
	}
	if got := s.tm.KnownEpoch(); got != 2 {
		t.Fatalf("witnessed epoch = %d, want 2", got)
	}
	if sb.promotions.Load() == 0 {
		t.Fatal("failover never asked the standby to promote")
	}
	// Rejoin re-established the session and re-registered the live DOP.
	if !sb.server.HasLease("ws1") {
		t.Fatal("no lease at the standby after failover")
	}
	if n := sb.server.ActiveDOPs(); n != 1 {
		t.Fatalf("standby registered %d DOPs, want 1", n)
	}
	// The long-lived DOP continues at the new primary: checkout and checkin
	// land in the standby's repository, through its epoch fence.
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatalf("checkout after failover: %v", err)
	}
	obj.Set("area", catalog.Float(80))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	newID, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatalf("checkin after failover: %v", err)
	}
	if _, err := sb.repo.Get(newID); err != nil {
		t.Fatalf("checked-in version missing at the standby: %v", err)
	}
	// A second failover has nowhere to go: the standby became the server.
	if err := s.tm.Failover(); err == nil {
		t.Fatal("failover without a standby should refuse")
	}
}

func TestHeartbeatDrivesFailoverWhenPrimaryFallsSilent(t *testing.T) {
	s := newStack(t, "")
	s.seedDOV(t, "v0", 100)
	sb := newStandby(t, s, "standby", 2)
	sb.seedDOV(t, "v0", 100)
	s.tm.SetStandbyAddr("standby")

	if _, err := s.tm.Begin("dH", "da1"); err != nil {
		t.Fatal(err)
	}
	const every = 15 * time.Millisecond
	s.tm.StartHeartbeat(every)
	defer s.tm.StopHeartbeat()

	s.trans.Partition(serverAddr)
	// Failover switches the address before its Rejoin takes the lease.
	deadline := time.Now().Add(5 * time.Second)
	for s.tm.ServerAddr() != "standby" || !sb.server.HasLease("ws1") {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat loop never failed over to the standby (server %s, standby lease %t)", s.tm.ServerAddr(), sb.server.HasLease("ws1"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.tm.KnownEpoch(); got != 2 {
		t.Fatalf("witnessed epoch = %d, want 2", got)
	}
}

// TestFailoverResolvesInDoubtCheckin is the lost-committed-work oracle at the
// TE level: the checkin's commit decision is durable in the workstation's
// coordinator log, but the primary dies before phase 2 reaches it. The
// standby holds the prepared branch (as its replicated staged record leaves
// it); failover resends the decision and the checkin materializes.
func TestFailoverResolvesInDoubtCheckin(t *testing.T) {
	s := newStack(t, t.TempDir())
	v0 := s.seedDOV(t, "v0", 100)
	sb := newStandby(t, s, "standby", 2)
	sb.seedDOV(t, "v0", 100)

	dop, err := s.tm.Begin("dD", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(75))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}

	// Mirror the replicated 2PC state at the standby: the branch the client
	// is about to commit is staged and prepared there.
	if err := sb.server.beginWS("dD", "da1", "ws1"); err != nil {
		t.Fatal(err)
	}
	staged := &version.DOV{
		ID: "dD/v1", DOT: "floorplan", DA: "da1", Parents: []version.ID{v0},
		Object: obj.Clone(), Status: version.StatusWorking,
	}
	if err := sb.server.Stage("dD", "dD/ci1", staged, false, nil); err != nil {
		t.Fatal(err)
	}
	if vote, err := sb.server.Prepare("dD/ci1"); err != nil || vote != rpc.VoteCommit {
		t.Fatalf("standby prepare = (%v, %v), want VoteCommit", vote, err)
	}

	// The primary dies right after the commit decision is logged: phase 2
	// never reaches any participant. The designer sees a failed checkin.
	co := s.tm.Coordinator()
	co.Faults = fault.New()
	co.Faults.Arm(rpc.FaultDecisionLogged, errors.New("primary crashed mid-2PC"))
	if _, err := dop.Checkin(version.StatusWorking, false); err == nil {
		t.Fatal("checkin should surface the phase-2 failure")
	}
	co.Faults.Disarm(rpc.FaultDecisionLogged)
	if co.Outcome("dD/ci1") != rpc.OutcomeCommitted {
		t.Fatal("commit decision not durable in the coordinator")
	}

	s.trans.Partition(serverAddr)
	s.tm.SetStandbyAddr("standby")
	if err := s.tm.Failover(); err != nil {
		t.Fatalf("failover: %v", err)
	}
	// The resent decision resolved the in-doubt branch: the committed
	// checkin exists at the new primary. No committed work was lost.
	got, err := sb.repo.Object("dD/v1")
	if err != nil {
		t.Fatalf("committed checkin lost across failover: %v", err)
	}
	if catalog.NumAttr(got, "area") != 75 {
		t.Fatalf("area = %g, want 75", catalog.NumAttr(got, "area"))
	}
}

// TestCheckoutOrdersEpochBumpAfterDroppedInvalidations is the regression test
// for the notifier reconnect window: invalidations destined for a workstation
// are lost (its callback endpoint was unreachable), so at its next checkout
// negotiation the server orders a cache-epoch bump — the stale incarnation
// ends instead of silently serving metadata the lost callbacks should have
// refreshed. The bump travels exactly once per loss.
func TestCheckoutOrdersEpochBumpAfterDroppedInvalidations(t *testing.T) {
	s := newStack(t, "")
	const cbAddr = "ws1-cb"
	n := s.wireCallbacks(t, s.tm, cbAddr)
	v0 := s.seedBig(t, "big0", 8<<10)

	dop, err := s.tm.Begin("dB", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.tm.Cache().Epoch()

	// The workstation's callback endpoint goes unreachable, and a checkin by
	// another workstation supersedes its cached version: the invalidation
	// push fails and is counted against the endpoint.
	s.trans.Partition(cbAddr)
	obj, err := dop.Input(v0)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(42))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, false); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if n.DroppedAt(cbAddr) == 0 {
		t.Fatal("partitioned callback endpoint recorded no loss")
	}
	s.trans.Heal(cbAddr)

	// Next checkout negotiation: the server orders the bump, the cache
	// retires its incarnation (entries flushed, epoch advanced), and the
	// checkout still returns correct data via the cache-blind fallback.
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatalf("checkout carrying the epoch bump: %v", err)
	}
	if got := s.tm.Cache().Epoch(); got != epoch0+1 {
		t.Fatalf("cache epoch = %d, want %d", got, epoch0+1)
	}
	// The bump is consumed: the next checkout keeps the new incarnation.
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	if got := s.tm.Cache().Epoch(); got != epoch0+1 {
		t.Fatalf("cache epoch after consumed bump = %d, want %d", got, epoch0+1)
	}
}
