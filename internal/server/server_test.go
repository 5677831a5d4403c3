package server

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/leakcheck"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
	"concord/internal/version"
	"concord/internal/vlsi"
	"concord/internal/wal"
)

// TestMain guards the package against leaked background goroutines: every
// loop a Site or Standby starts — checkpointer, lease reaper, notifier, CM
// dispatcher, WAL shipper — must have exited once Close returned.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}

// node is one durable server process of a test: the state a daemon opens
// under its data directory plus its listening transport.
type node struct {
	repo  *repo.Repository
	plog  *wal.Log
	trans *rpc.TCP
}

// openNode opens the durable state of one server under a fresh directory, in
// the flat layout concordd uses.
func openNode(t *testing.T, follower bool) *node {
	t.Helper()
	dir := t.TempDir()
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir, Sync: true, Follower: follower})
	if err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(filepath.Join(dir, "participant.wal"), wal.Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	n := &node{repo: r, plog: plog, trans: rpc.NewTCP()}
	t.Cleanup(func() {
		n.trans.Close()
		n.plog.Close()
		n.repo.Close()
	})
	return n
}

// listen serves h on a kernel-chosen loopback port of the node's transport.
func (n *node) listen(t *testing.T, h rpc.DeadlineHandler) string {
	t.Helper()
	addr, err := n.trans.ListenDeadline("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// workstation boots a volatile client-TM over its own TCP transport. The
// returned transport is closed at cleanup; the TM is the caller's to close
// (or to abandon, simulating a crash).
func workstation(t *testing.T, id, server string) (*txn.ClientTM, *rpc.TCP) {
	t.Helper()
	tr := rpc.NewTCP()
	t.Cleanup(func() { tr.Close() })
	client := rpc.NewClient(tr, id)
	client.Backoff = time.Millisecond
	tm, _, err := txn.NewClientTM(id, client, server, "")
	if err != nil {
		t.Fatal(err)
	}
	return tm, tr
}

// checkinRoot commits a root floorplan version in da and returns its ID.
func checkinRoot(t *testing.T, tm *txn.ClientTM, da string) version.ID {
	t.Helper()
	dop, err := tm.Begin("", da)
	if err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).Set("cell", catalog.Str(da)).Set("area", catalog.Float(42))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	id, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestAssembledSiteReapsCrashedWorkstation is the orphan-reclamation guarantee
// of DESIGN.md §5.3 for every deployment that goes through Assemble (concordd
// included): a workstation that dies holding a derivation lock loses it once
// its lease expires, because Assemble runs the lease reaper. Site.Close then
// stops every loop the site started (checked by the TestMain guard).
func TestAssembledSiteReapsCrashedWorkstation(t *testing.T) {
	const ttl = 300 * time.Millisecond
	n := openNode(t, false)
	site, err := Assemble(n.repo, n.plog, rpc.NewClient(n.trans, "server-cb"), Options{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	site.StartCheckpointer(1 << 30)
	addr := n.listen(t, site.Handler())
	if err := n.repo.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}

	ws1, tr1 := workstation(t, "ws1", addr)
	v0 := checkinRoot(t, ws1, "da1")
	holder, err := ws1.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Checkout(v0, true); err != nil {
		t.Fatalf("ws1 derive-checkout: %v", err)
	}
	// ws1 vanishes: its sockets die, nothing releases the derivation lock.
	tr1.Close()
	gone := time.Now()

	// ws2 is alive: it heartbeats, so only ws1's lease runs out while it waits.
	ws2, _ := workstation(t, "ws2", addr)
	defer ws2.Close()
	ws2.StartHeartbeat(ttl / 4)
	dop, err := ws2.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, true); err != nil {
		t.Fatalf("ws2 derive-checkout of the orphaned version: %v", err)
	}
	if waited := time.Since(gone); waited > 2*ttl {
		t.Fatalf("orphaned derivation lock reclaimed after %v, want within %v", waited, 2*ttl)
	}
	if site.TM.HasLease("ws1") {
		t.Fatal("ws1 still holds a lease after its lock was reclaimed")
	}
}

// TestHeartbeatKeepsDOPOpenPastLeaseTTL is the other half of the contract the
// reaper imposes on every workstation of an assembled site: one that renews
// its lease keeps a DOP — derivation lock included — open for as long as it
// likes, over real sockets.
func TestHeartbeatKeepsDOPOpenPastLeaseTTL(t *testing.T) {
	const ttl = 200 * time.Millisecond
	n := openNode(t, false)
	site, err := Assemble(n.repo, n.plog, rpc.NewClient(n.trans, "server-cb"), Options{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	addr := n.listen(t, site.Handler())
	if err := n.repo.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	ws, _ := workstation(t, "ws1", addr)
	defer ws.Close()
	ws.StartHeartbeat(ttl / 4)
	v0 := checkinRoot(t, ws, "da1")
	dop, err := ws.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * ttl)
	if err := dop.SetWorkspace(obj.Set("area", catalog.Float(43))); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, false); err != nil {
		t.Fatalf("checkin from a DOP held open for 3x LeaseTTL under heartbeat: %v", err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPrimaryStandbyPromoteOverTCP walks the replication choreography of
// DESIGN.md §5.4 between two sites over loopback sockets: attach (idempotent
// re-announcement, sender swap on a new address), a checkin acknowledged
// under synchronous shipping, the standby's pre-promotion refusals, the
// epoch-fenced promotion, and the deposed primary fencing itself off.
func TestPrimaryStandbyPromoteOverTCP(t *testing.T) {
	pn, sn := openNode(t, false), openNode(t, true)
	primary, err := Assemble(pn.repo, pn.plog, rpc.NewClient(pn.trans, "primary-cb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// The announcement is a deployment verb behind the site's dedup and fence,
	// as concordd registers it; it answers whether a sender was started.
	ship := repl.SenderOptions{Sync: true}
	replClient := rpc.NewClient(pn.trans, "repl")
	primary.Handle("test/attach", func(_ string, addr []byte) ([]byte, error) {
		if primary.ReplicateTo(replClient, string(addr), ship) {
			return []byte("started"), nil
		}
		return nil, nil
	})
	pAddr := pn.listen(t, primary.Handler())
	standby := NewStandby(sn.repo, sn.plog, rpc.NewClient(sn.trans, "standby-cb"), Options{})
	defer standby.Close()
	promotedTo := make(chan *Site, 1)
	standby.OnPromoted = func(s *Site) { promotedTo <- s }
	sAddr := sn.listen(t, standby.Handler())

	// Attach: a first announcement starts shipping, a repeated one is a
	// no-op, a different address swaps the sender.
	announcer := rpc.NewClient(sn.trans, "attach")
	attach := func(addr string) bool {
		t.Helper()
		resp, err := announcer.Call(pAddr, "test/attach", []byte(addr))
		if err != nil {
			t.Fatalf("attach %s: %v", addr, err)
		}
		return len(resp) > 0
	}
	if !attach("127.0.0.1:1") {
		t.Fatal("first attach started no sender")
	}
	if !attach(sAddr) {
		t.Fatal("attach from a different address did not swap the sender")
	}
	if attach(sAddr) {
		t.Fatal("re-announcement of the current standby restarted the sender")
	}
	await(t, "sync mode", func() bool { return primary.SenderStats().Mode == repl.ModeSync })

	// A CM-managed design area: its scope ownership is what the promoted
	// site's CM rebuilds from the replicated hierarchy.
	if err := primary.CM.InitDesign(coop.Config{ID: "da1", DOT: vlsi.DOTFloorplan, Designer: "d1"}); err != nil {
		t.Fatal(err)
	}
	if err := primary.CM.Start("da1"); err != nil {
		t.Fatal(err)
	}
	ws, _ := workstation(t, "ws1", pAddr)
	defer ws.Close()
	ws.SetStandbyAddr(sAddr)
	v0 := checkinRoot(t, ws, "da1")
	if ok, err := sn.repo.Exists(v0); err != nil || !ok {
		t.Fatalf("checkin acknowledged under sync shipping is not on the standby (ok=%t err=%v)", ok, err)
	}

	// Before promotion the standby answers health probes and nothing else.
	probe, _ := workstation(t, "probe", sAddr)
	defer probe.Close()
	if h, err := probe.ServerHealthFull(); err != nil || h.Role != "standby" || h.Epoch != 0 {
		t.Fatalf("standby health = %+v, %v; want role=standby epoch=0", h, err)
	}
	raw := rpc.NewClient(pn.trans, "raw")
	if _, err := raw.Call(sAddr, txn.MethodCheckout, nil); !errors.Is(err, repo.ErrFollower) {
		t.Fatalf("checkout at unpromoted standby: %v, want repo.ErrFollower", err)
	}

	// Client-driven takeover: promote, adopt the epoch, move the session.
	if err := ws.Failover(); err != nil {
		t.Fatalf("failover: %v", err)
	}
	if got := <-promotedTo; got != standby.Site() || got == nil {
		t.Fatalf("OnPromoted saw site %p, Standby.Site() = %p", got, standby.Site())
	}
	if h, err := ws.ServerHealthFull(); err != nil || h.Role != "primary" || h.Epoch != 1 {
		t.Fatalf("promoted health = %+v, %v; want role=primary epoch=1", h, err)
	}
	dop, err := ws.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	ws.Cache().Drop(v0)
	obj, err := dop.Checkout(v0, false)
	if err != nil {
		t.Fatalf("checkout of the acknowledged version at the promoted site: %v", err)
	}
	if catalog.NumAttr(obj, "area") != 42 {
		t.Fatalf("promoted site served area = %g, want 42", catalog.NumAttr(obj, "area"))
	}

	// A caller that witnessed the failover is refused by the deposed primary.
	moved := rpc.NewClient(pn.trans, "moved")
	moved.Epoch = func() uint64 { return 1 }
	for _, method := range []string{txn.MethodHealth, "test/attach"} {
		if _, err := moved.Call(pAddr, method, []byte(sAddr)); !errors.Is(err, rpc.ErrStaleEpoch) {
			t.Fatalf("deposed primary answered %s with %v, want rpc.ErrStaleEpoch", method, err)
		}
	}
}

// await polls cond until it holds or five seconds pass.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestForceTableServerRows pins the server rows of the force table in
// DESIGN.md §4.4: what one derive-checkout/checkin cycle of a workstation
// appends to and forces on repo.wal and participant.wal of an assembled site.
// Only the checkin logs anything. On repo.wal: the staged record, forced at
// prepare, then the install record and the staged record's deletion in one
// force at commit — stage and install each carry the payload, so it is logged
// twice. On participant.wal: the forced vote, and the done record that rides
// the next force.
func TestForceTableServerRows(t *testing.T) {
	n := openNode(t, false)
	site, err := Assemble(n.repo, n.plog, rpc.NewClient(n.trans, "server-cb"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	addr := n.listen(t, site.Handler())
	if err := n.repo.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	ws, _ := workstation(t, "ws1", addr)
	defer ws.Close()
	v0 := checkinRoot(t, ws, "da1")

	type delta struct{ records, forces, bytes int64 }
	state := func(l *wal.Log) delta {
		appends, _, syncs := l.Stats()
		return delta{int64(appends), int64(syncs), l.Size()}
	}
	var dop *txn.DOP
	var payload int64
	steps := []struct {
		name       string
		do         func() error
		repo, part delta // bytes: an upper bound beyond the payload copies
		copies     int64 // payload copies the step logs on repo.wal
	}{
		{name: "Begin", do: func() (err error) { dop, err = ws.Begin("", "da1"); return err }},
		{name: "Checkout", do: func() error {
			obj, err := dop.Checkout(v0, true)
			if err != nil {
				return err
			}
			obj.Set("cell", catalog.Str(strings.Repeat("x", 16<<10)))
			enc, err := catalog.EncodeObject(obj)
			payload = int64(len(enc))
			if err != nil {
				return err
			}
			return dop.SetWorkspace(obj)
		}},
		{name: "Checkin", repo: delta{3, 2, 512}, copies: 2, part: delta{2, 1, 128}, do: func() error {
			_, err := dop.Checkin(version.StatusWorking, false)
			return err
		}},
		{name: "Commit", do: func() error { return dop.Commit() }},
	}
	for _, st := range steps {
		r0, p0 := state(n.repo.Log()), state(n.plog)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check := func(log string, now, before, want delta, lo int64) {
			t.Helper()
			got := delta{now.records - before.records, now.forces - before.forces, now.bytes - before.bytes}
			if got.records != want.records || got.forces != want.forces || got.bytes < lo || got.bytes > lo+want.bytes {
				t.Errorf("%s on %s: %d records, %d forces, %d bytes; want %d, %d, %d..%d",
					st.name, log, got.records, got.forces, got.bytes, want.records, want.forces, lo, lo+want.bytes)
			}
		}
		check("repo.wal", state(n.repo.Log()), r0, st.repo, st.copies*payload)
		check("participant.wal", state(n.plog), p0, st.part, 0)
	}
}
