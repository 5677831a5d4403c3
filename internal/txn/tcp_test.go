package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
)

// TestDOPOverRealTCP runs the full client-TM/server-TM protocol over actual
// TCP sockets — the LAN workstation/server deployment of Sect. 5.1 used by
// cmd/concordd.
func TestDOPOverRealTCP(t *testing.T) {
	cat := catalog.New()
	if err := cat.Register(&catalog.DOT{
		Name: "floorplan",
		Attrs: []catalog.AttrDef{
			{Name: "cell", Kind: catalog.KindString, Required: true},
			{Name: "area", Kind: catalog.KindFloat},
		},
	}); err != nil {
		t.Fatal(err)
	}
	r, err := repo.Open(cat, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	scopes := lock.NewScopeTable()
	server := NewServerTM(r, lock.NewManager(), scopes)
	server.LockTimeout = 500 * time.Millisecond
	participant, err := rpc.NewParticipant(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", rpc.Dedup(server.Handler(participant))); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	cliTrans := rpc.NewTCP()
	defer cliTrans.Close()
	client := rpc.NewClient(cliTrans, "tcp-ws")
	tm, recovered, err := NewClientTM("tcp-ws", client, addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if len(recovered) != 0 {
		t.Fatal("fresh TM recovered DOPs")
	}

	// Full DOP round trip across the wire.
	dop, err := tm.Begin("tcp-dop", "da1")
	if err != nil {
		t.Fatalf("Begin over TCP: %v", err)
	}
	obj := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(42))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	v1, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		t.Fatalf("Checkin over TCP: %v", err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	// Derive once more, with a checkout over the wire.
	dop2, err := tm.Begin("tcp-dop-2", "da1")
	if err != nil {
		t.Fatal(err)
	}
	in, err := dop2.Checkout(v1, true)
	if err != nil {
		t.Fatalf("Checkout over TCP: %v", err)
	}
	if catalog.NumAttr(in, "area") != 42 {
		t.Fatalf("checked-out area = %g", catalog.NumAttr(in, "area"))
	}
	in.Set("area", catalog.Float(40))
	if err := dop2.SetWorkspace(in); err != nil {
		t.Fatal(err)
	}
	v2, err := dop2.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop2.Commit(); err != nil {
		t.Fatal(err)
	}
	g, err := r.Graph("da1")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.IsAncestor(v1, v2)
	if err != nil || !ok {
		t.Fatalf("derivation over TCP lost: %t, %v", ok, err)
	}
	if owner, _ := scopes.Owner(string(v2)); owner != "da1" {
		t.Fatalf("scope owner = %s", owner)
	}
}

// tcpStack is a full workstation/server deployment over real sockets.
type tcpStack struct {
	repo   *repo.Repository
	scopes *lock.ScopeTable
	server *ServerTM
	addr   string
}

// newTCPStack assembles a server-TM behind a loopback TCP listener with the
// area-bounded floorplan DOT (validation failures make Prepare vote abort).
func newTCPStack(t *testing.T) *tcpStack {
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
	r, err := repo.Open(cat, repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	scopes := lock.NewScopeTable()
	server := NewServerTM(r, lock.NewManager(), scopes)
	server.LockTimeout = 300 * time.Millisecond
	participant, err := rpc.NewParticipant(server, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewTCP()
	t.Cleanup(func() { srv.Close() })
	addr, err := srv.Listen("127.0.0.1:0", rpc.Dedup(server.Handler(participant)))
	if err != nil {
		t.Fatal(err)
	}
	return &tcpStack{repo: r, scopes: scopes, server: server, addr: addr}
}

// newWS connects a workstation client-TM to the stack over its own TCP
// transport.
func (s *tcpStack) newWS(t *testing.T, id string) *ClientTM {
	t.Helper()
	trans := rpc.NewTCP()
	t.Cleanup(func() { trans.Close() })
	client := rpc.NewClient(trans, id)
	client.Backoff = time.Millisecond
	tm, _, err := NewClientTM(id, client, s.addr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close() })
	return tm
}

// seed installs an initial DOV into da1's graph and scope.
func (s *tcpStack) seed(t *testing.T, id string, area float64) version.ID {
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

// TestErrCheckinFailedOverTCPMatchesInProc is the acceptance check for the
// wire error contract: a checkin the server votes to abort must surface as
// errors.Is(err, ErrCheckinFailed) over real sockets exactly as it does over
// the in-process transport (TestCheckinValidationFailure pins the in-proc
// half with the same rejected object).
func TestErrCheckinFailedOverTCPMatchesInProc(t *testing.T) {
	s := newTCPStack(t)
	tm := s.newWS(t, "ws1")
	dop, err := tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	bad := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(-1))
	if err := dop.SetWorkspace(bad); err != nil {
		t.Fatal(err)
	}
	_, err = dop.Checkin(version.StatusWorking, true)
	if !errors.Is(err, ErrCheckinFailed) {
		t.Fatalf("rejected checkin over TCP = %v, want errors.Is ErrCheckinFailed", err)
	}
	// The designer fixes the object; the retried checkin succeeds over the
	// same pooled connections.
	good := catalog.NewObject("floorplan").Set("cell", catalog.Str("O")).Set("area", catalog.Float(50))
	if err := dop.SetWorkspace(good); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkin(version.StatusWorking, true); err != nil {
		t.Fatalf("retry after fix: %v", err)
	}
}

// TestLockSentinelCrossesTCPWire drives a derivation-lock conflict between
// two workstations over sockets: the loser's error must still match
// lock.ErrTimeout (and rpc.ErrRemote) through errors.Is — the sentinel
// travels as a wire code, not as flattened text.
func TestLockSentinelCrossesTCPWire(t *testing.T) {
	s := newTCPStack(t)
	v0 := s.seed(t, "v0", 100)
	ws1 := s.newWS(t, "ws1")
	ws2 := s.newWS(t, "ws2")
	dop1, err := ws1.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop1.Checkout(v0, true); err != nil {
		t.Fatal(err)
	}
	dop2, err := ws2.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = dop2.Checkout(v0, true)
	if err == nil {
		t.Fatal("conflicting derivation checkout succeeded")
	}
	if !errors.Is(err, rpc.ErrRemote) {
		t.Fatalf("conflict error = %v, want rpc.ErrRemote in the chain", err)
	}
	if !errors.Is(err, lock.ErrTimeout) {
		t.Fatalf("conflict error = %v, want lock.ErrTimeout to survive the socket", err)
	}
}

// TestScopeSentinelOverTCP checks a second registered sentinel family:
// checking out a DOV outside the DA's scope surfaces lock.ErrScopeDenied
// across the wire (the scope check precedes the existence check, so an
// unknown ID takes this path too).
func TestScopeSentinelOverTCP(t *testing.T) {
	s := newTCPStack(t)
	tm := s.newWS(t, "ws1")
	dop, err := tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = dop.Checkout(version.ID("ghost"), false)
	if err == nil {
		t.Fatal("checkout outside scope succeeded")
	}
	if !errors.Is(err, lock.ErrScopeDenied) {
		t.Fatalf("out-of-scope checkout = %v, want lock.ErrScopeDenied over the wire", err)
	}
}

// TestLargeObjectChunkedOverTCP round-trips a 64 KiB and a multi-megabyte
// design object through checkin and a cold checkout over the socket
// transport: each checkout is a full transfer (the cache entry the checkin
// left is dropped first), the big payload spans many wire chunks in both
// directions, and both must reassemble bit-exact.
func TestLargeObjectChunkedOverTCP(t *testing.T) {
	s := newTCPStack(t)
	tm := s.newWS(t, "ws1")
	for _, size := range []int{64 << 10, 3 << 20} {
		dop, err := tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		// Pseudo-random geometry in one string attribute.
		raw := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(raw)
		for i := range raw { // printable so the value behaves as a plain string
			raw[i] = 'a' + raw[i]%26
		}
		big := catalog.NewObject("floorplan").
			Set("cell", catalog.Str(string(raw))).
			Set("area", catalog.Float(1))
		if err := dop.SetWorkspace(big); err != nil {
			t.Fatal(err)
		}
		v1, err := dop.Checkin(version.StatusWorking, true)
		if err != nil {
			t.Fatalf("%d-byte checkin over TCP: %v", size, err)
		}
		if err := dop.Commit(); err != nil {
			t.Fatal(err)
		}
		tm.Cache().Drop(v1)
		before := tm.WireStats()
		dop2, err := tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		got, err := dop2.Checkout(v1, false)
		if err != nil {
			t.Fatalf("%d-byte checkout over TCP: %v", size, err)
		}
		if err := dop2.Abort(); err != nil {
			t.Fatal(err)
		}
		after := tm.WireStats()
		if after.FullCheckouts != before.FullCheckouts+1 || after.CheckoutBytesIn-before.CheckoutBytesIn < uint64(size) {
			t.Fatalf("%d-byte cold checkout was not a full transfer: %+v", size, after)
		}
		cell, ok := got.Get("cell")
		if !ok || !bytes.Equal([]byte(cell.S), raw) {
			t.Fatalf("%d-byte object corrupted across chunked frames", size)
		}
	}
}

// TestConcurrentWorkstationsOverTCP pipelines eight workstations, each
// running several full DOP cycles against one server over pooled multiplexed
// connections — the contention shape of the E18 experiment, asserted for
// correctness here.
func TestConcurrentWorkstationsOverTCP(t *testing.T) {
	s := newTCPStack(t)
	v0 := s.seed(t, "v0", 100)
	const workstations = 8
	errs := make(chan error, workstations)
	for w := 0; w < workstations; w++ {
		tm := s.newWS(t, fmt.Sprintf("ws%d", w))
		go func(tm *ClientTM, w int) {
			for i := 0; i < 4; i++ {
				dop, err := tm.Begin("", "da1")
				if err != nil {
					errs <- err
					return
				}
				if _, err := dop.Checkout(v0, false); err != nil {
					errs <- err
					return
				}
				obj := catalog.NewObject("floorplan").
					Set("cell", catalog.Str("O")).
					Set("area", catalog.Float(float64(w*10+i+1)))
				if err := dop.SetWorkspace(obj); err != nil {
					errs <- err
					return
				}
				if _, err := dop.Checkin(version.StatusWorking, true); err != nil {
					errs <- err
					return
				}
				if err := dop.Commit(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(tm, w)
	}
	for w := 0; w < workstations; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.repo.DOVCount(); got != 1+workstations*4 {
		t.Fatalf("repo holds %d DOVs, want %d", got, 1+workstations*4)
	}
}
