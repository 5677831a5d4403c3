package txn

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/rpc"
	"concord/internal/version"
)

// bigObject builds a floorplan whose encoding is roughly size bytes, with a
// tag mixed in so distinct objects differ.
func bigObject(tag string, size int) *catalog.Object {
	payload := strings.Repeat(tag+"-0123456789abcdef", size/(len(tag)+17)+1)
	return catalog.NewObject("floorplan").
		Set("cell", catalog.Str(payload[:size])).
		Set("area", catalog.Float(100))
}

// seedBig installs a large root version.
func (s *stack) seedBig(t *testing.T, id string, size int) version.ID {
	t.Helper()
	v := &version.DOV{ID: version.ID(id), DOT: "floorplan", DA: "da1",
		Object: bigObject(id, size), Status: version.StatusWorking}
	if err := s.repo.Checkin(v, true); err != nil {
		t.Fatal(err)
	}
	if err := s.scopes.Own("da1", id); err != nil {
		t.Fatal(err)
	}
	return version.ID(id)
}

// wireCallbacks connects the server's invalidation push to a client cache
// the way core does, returning the notifier for flushing.
func (s *stack) wireCallbacks(t *testing.T, tm *ClientTM, addr string) *rpc.Notifier {
	t.Helper()
	if err := s.trans.Serve(addr, rpc.Dedup(tm.Cache().Handler())); err != nil {
		t.Fatal(err)
	}
	tm.SetCallbackAddr(addr)
	cb := rpc.NewClient(s.trans, "srv-cb-"+addr)
	cb.Backoff = 0
	n := rpc.NewNotifier(cb, 0)
	t.Cleanup(n.Close)
	s.server.SetNotifier(n)
	s.repo.SetChangeHook(s.server.VersionChanged)
	return n
}

func TestRecheckoutNotModified(t *testing.T) {
	s := newStack(t, "")
	const size = 64 << 10
	v0 := s.seedBig(t, "big0", size)

	dop1, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	first, err := dop1.Checkout(v0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop1.Abort(); err != nil {
		t.Fatal(err)
	}
	before := s.tm.WireStats()
	if before.FullCheckouts != 1 || before.NotModified != 0 {
		t.Fatalf("first checkout stats: %+v", before)
	}
	e1, _ := catalog.EncodeObject(first)
	if before.CheckoutBytesIn < uint64(len(e1)) {
		t.Fatalf("cold checkout transferred %d bytes for a %d-byte object", before.CheckoutBytesIn, len(e1))
	}

	dop2, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	second, err := dop2.Checkout(v0, false)
	if err != nil {
		t.Fatal(err)
	}
	after := s.tm.WireStats()
	if after.NotModified != 1 {
		t.Fatalf("re-checkout was not NotModified: %+v", after)
	}
	// O(hash) bytes: the response carries metadata + hash, no payload.
	respBytes := after.CheckoutBytesIn - before.CheckoutBytesIn
	if respBytes > 1024 {
		t.Fatalf("NotModified response was %d bytes for a %d-byte object", respBytes, size)
	}
	e2, _ := catalog.EncodeObject(second)
	if !bytes.Equal(e1, e2) {
		t.Fatal("cached re-checkout returned different content")
	}
}

func TestCheckinShipsVerifiedDelta(t *testing.T) {
	s := newStack(t, "")
	const size = 64 << 10
	v0 := s.seedBig(t, "big0", size)

	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(99)) // small edit to a large object
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	newID, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	st := s.tm.WireStats()
	if st.DeltaCheckins != 1 {
		t.Fatalf("checkin did not ship a delta: %+v", st)
	}
	if st.CheckinBytesOut*5 > uint64(size) {
		t.Fatalf("delta checkin shipped %d bytes for a %d-byte object (want ≥ 5x smaller)", st.CheckinBytesOut, size)
	}
	// Content hash asserted on both ends: what the server installed equals
	// the workspace byte-for-byte.
	_, gotEnc, _, err := s.repo.Lookup(newID)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, _ := catalog.EncodeObject(obj)
	if !bytes.Equal(wantEnc, gotEnc) {
		t.Fatal("server-side reconstruction differs from the workspace")
	}
}

func TestCheckoutDeltaAgainstCachedRelative(t *testing.T) {
	s := newStack(t, "")
	const size = 64 << 10
	v0 := s.seedBig(t, "big0", size)

	// ws1 derives v1 from v0 with a small edit.
	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(42))
	dop.SetWorkspace(obj) //nolint:errcheck
	v1, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}

	// ws2 holds v0 and then checks out v1: the payload must travel as a
	// delta against its cached v0.
	client2 := rpc.NewClient(s.trans, "ws2")
	client2.Backoff = 0
	tm2, _, err := NewClientTM("ws2", client2, serverAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm2.Close() })
	dop2, err := tm2.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop2.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	mid := tm2.WireStats()
	got, err := dop2.Checkout(v1, false)
	if err != nil {
		t.Fatal(err)
	}
	st := tm2.WireStats()
	if st.DeltaCheckouts != 1 {
		t.Fatalf("second checkout was not a delta: %+v", st)
	}
	if in := st.CheckoutBytesIn - mid.CheckoutBytesIn; in*5 > uint64(size) {
		t.Fatalf("delta checkout transferred %d bytes for a %d-byte object", in, size)
	}
	wantEnc, _ := catalog.EncodeObject(obj)
	gotEnc, _ := catalog.EncodeObject(got)
	if !bytes.Equal(wantEnc, gotEnc) {
		t.Fatal("delta checkout reconstructed wrong content")
	}
}

func TestCallbackSupersessionAndStatus(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedBig(t, "big0", 8<<10)
	n := s.wireCallbacks(t, s.tm, "cb/ws1")

	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	if s.server.CacheRegistrations() == 0 {
		t.Fatal("checkout did not register the workstation cache")
	}

	// Another workstation derives v1 from v0: ws1's cached v0 must learn it
	// was superseded.
	client2 := rpc.NewClient(s.trans, "ws2")
	client2.Backoff = 0
	tm2, _, err := NewClientTM("ws2", client2, serverAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm2.Close() })
	dop2, err := tm2.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop2.Checkout(v0, true)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(7))
	dop2.SetWorkspace(obj) //nolint:errcheck
	v1, err := dop2.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if by := s.tm.Cache().SupersededBy(v0); by != v1 {
		t.Fatalf("cached %s superseded by %q, want %s", v0, by, v1)
	}

	// A status promotion refreshes the cached record in place…
	if err := s.repo.SetStatus(v0, version.StatusPropagated); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if st, ok := s.tm.Cache().Status(v0); !ok || st != version.StatusPropagated {
		t.Fatalf("cached status = %v (ok=%t), want propagated", st, ok)
	}
	// …and an invalidation evicts it.
	if err := s.repo.SetStatus(v0, version.StatusInvalid); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if _, ok := s.tm.Cache().Status(v0); ok {
		t.Fatal("invalid version still cached after callback")
	}
}

// TestInvalidationRacingCheckout hammers checkouts of a version while its
// status flips concurrently (each flip pushing a callback). The cache must
// neither corrupt state nor fail a checkout; when the dust settles, a fresh
// checkout serves the server's current truth.
func TestInvalidationRacingCheckout(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedBig(t, "big0", 16<<10)
	n := s.wireCallbacks(t, s.tm, "cb/ws1")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := version.StatusWorking
			if i%2 == 1 {
				st = version.StatusPropagated
			}
			if err := s.repo.SetStatus(v0, st); err != nil {
				t.Error(err)
				return
			}
			i++
		}
	}()
	for round := 0; round < 60; round++ {
		dop, err := s.tm.Begin(fmt.Sprintf("race-%d", round), "da1")
		if err != nil {
			t.Fatal(err)
		}
		obj, err := dop.Checkout(v0, false)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		enc, _ := catalog.EncodeObject(obj)
		_, want, _, err := s.repo.Lookup(v0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("round %d: checkout content diverged from repository", round)
		}
		if err := dop.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	n.Flush()

	// Quiesced: one more checkout must serve the repository's current
	// status (NotModified responses refresh it under the server's lock).
	cur, err := s.repo.Get(v0)
	if err != nil {
		t.Fatal(err)
	}
	dop, err := s.tm.Begin("race-final", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.tm.Cache().Status(v0); !ok || st != cur.Status {
		t.Fatalf("cached status %v after quiesce, repository has %v", st, cur.Status)
	}
}

// TestRestartStaleCacheEpoch crashes a workstation whose cache holds v0,
// changes the world while it is down (missed callbacks), and restarts it:
// the new incarnation must bump its epoch, ignore callbacks addressed to the
// old one, and serve fresh state on its first checkout.
func TestRestartStaleCacheEpoch(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	v0 := s.seedBig(t, "big0", 32<<10)

	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	oldEpoch := s.tm.Cache().Epoch()
	s.tm.Crash()

	// While the workstation is down: v0 is promoted (the callback is lost).
	if err := s.repo.SetStatus(v0, version.StatusFinal); err != nil {
		t.Fatal(err)
	}

	// Restart: same disk, fresh incarnation.
	client2 := rpc.NewClient(s.trans, "ws1@2")
	client2.Backoff = 0
	tm2, _, err := NewClientTM("ws1", client2, serverAddr, dir+"/ws1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm2.Close() })
	if got := tm2.Cache().Epoch(); got != oldEpoch+1 {
		t.Fatalf("epoch after restart = %d, want %d", got, oldEpoch+1)
	}
	if tm2.Cache().Len() == 0 {
		t.Fatal("persisted cache entries were not recovered")
	}
	// A callback addressed to the dead incarnation must be ignored.
	tm2.Cache().apply(invalidateMsg{Epoch: oldEpoch, Entries: []invalidation{
		{DOV: v0, Kind: invStatus, Status: version.StatusInvalid},
	}})
	if tm2.Cache().Len() == 0 {
		t.Fatal("stale-epoch callback was applied")
	}

	// First checkout after restart: payload satisfied from the cache
	// (NotModified — the bytes never changed), status refreshed to Final.
	// (An explicit DOP id: the crashed DOP was recovered and owns dop-0001.)
	dop2, err := tm2.Begin("ws1/restart-dop", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop2.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	st := tm2.WireStats()
	if st.NotModified != 1 {
		t.Fatalf("restart re-checkout stats: %+v", st)
	}
	if got, ok := tm2.Cache().Status(v0); !ok || got != version.StatusFinal {
		t.Fatalf("stale cache served status %v after restart, want final", got)
	}
}

// TestDeltaWrongBaseHardFails sends checkin deltas with a lying base hash
// and with content that does not match its declared hash: the server must
// refuse with ErrDeltaBase (observable through the RPC error chain) and the
// repository must stay untouched.
func TestDeltaWrongBaseHardFails(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedBig(t, "big0", 8<<10)
	before := s.repo.DOVCount()

	client := rpc.NewClient(s.trans, "evil")
	client.Backoff = 0
	if _, err := client.Call(serverAddr, MethodBegin, beginMsg{DOP: "evil/dop", DA: "da1"}.encode()); err != nil {
		t.Fatal(err)
	}
	_, baseEnc, baseHash, err := s.repo.Lookup(v0)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := catalog.EncodeObject(bigObject("target", 8<<10))
	delta := binenc.Delta(baseEnc, target)

	lyingHash := append([]byte(nil), baseHash...)
	lyingHash[0] ^= 0xFF
	cases := []stageMsg{
		// Wrong base hash: claims a base the server's bytes don't match.
		{DOP: "evil/dop", TxID: "tx-a", Root: true, Hash: catalog.HashEncoded(target),
			DOV:    dovWire{ID: "evil-a", DOT: "floorplan", DA: "da1"},
			BaseID: v0, BaseHash: lyingHash, Delta: delta},
		// Right base, but declared content hash disagrees with the
		// reconstruction.
		{DOP: "evil/dop", TxID: "tx-b", Root: true, Hash: lyingHash,
			DOV:    dovWire{ID: "evil-b", DOT: "floorplan", DA: "da1"},
			BaseID: v0, BaseHash: baseHash, Delta: delta},
		// Unknown base version.
		{DOP: "evil/dop", TxID: "tx-c", Root: true, Hash: catalog.HashEncoded(target),
			DOV:    dovWire{ID: "evil-c", DOT: "floorplan", DA: "da1"},
			BaseID: "no-such-dov", BaseHash: baseHash, Delta: delta},
		// Full form whose payload does not match its declared hash.
		{DOP: "evil/dop", TxID: "tx-d", Root: true, Hash: lyingHash,
			DOV: dovWire{ID: "evil-d", DOT: "floorplan", DA: "da1", Object: target}},
	}
	for _, m := range cases {
		_, err := client.Call(serverAddr, MethodStage, m.encode())
		if !errors.Is(err, rpc.ErrRemote) {
			t.Fatalf("%s: err = %v, want remote error", m.TxID, err)
		}
		if !errors.Is(err, ErrDeltaBase) {
			t.Fatalf("%s: err = %v, want ErrDeltaBase in the chain", m.TxID, err)
		}
	}
	if got := s.repo.DOVCount(); got != before {
		t.Fatalf("corrupt deltas changed the repository: %d -> %d DOVs", before, got)
	}
	// And nothing is staged for any of the refused transactions.
	for _, tx := range []string{"tx-a", "tx-b", "tx-c", "tx-d"} {
		if vote, _ := s.server.Prepare(tx); vote != rpc.VoteAbort {
			t.Fatalf("%s: refused stage still prepared", tx)
		}
	}
}

// TestCheckinErrorChainUnwraps asserts the %w chain end-to-end: an
// application-level refusal during staging surfaces the original sentinel
// through transport, client retry layer and client-TM wrapping.
func TestCheckinErrorChainUnwraps(t *testing.T) {
	s := newStack(t, "")
	v0 := s.seedDOV(t, "v0", 100)

	// Stage for a DOP the server has never heard of.
	client := rpc.NewClient(s.trans, "stray")
	client.Backoff = 0
	obj, _ := catalog.EncodeObject(bigObject("x", 256))
	_, err := client.Call(serverAddr, MethodStage, stageMsg{
		DOP: "ghost/dop", TxID: "tx-ghost", Root: true,
		DOV: dovWire{ID: "gv", DOT: "floorplan", DA: "da1", Object: obj},
	}.encode())
	if !errors.Is(err, ErrUnknownDOP) {
		t.Fatalf("stage for unknown DOP: err = %v, want ErrUnknownDOP in chain", err)
	}

	// A server-refused checkin (schema violation at prepare) surfaces
	// ErrCheckinFailed from DOP.Checkin.
	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	bad := catalog.NewObject("floorplan").Set("area", catalog.Float(50)) // missing required "cell"
	dop.SetWorkspace(bad)                                                //nolint:errcheck
	if _, err := dop.Checkin(version.StatusWorking, false); !errors.Is(err, ErrCheckinFailed) {
		t.Fatalf("refused checkin: err = %v, want ErrCheckinFailed", err)
	}

	// A transport-level failure keeps its cause too: partition the server.
	s.trans.Partition(serverAddr)
	dop.SetWorkspace(bigObject("y", 256)) //nolint:errcheck
	_, err = dop.Checkin(version.StatusWorking, false)
	if !errors.Is(err, rpc.ErrUnreachable) {
		t.Fatalf("partitioned checkin: err = %v, want ErrUnreachable in chain", err)
	}
	s.trans.Heal(serverAddr)
}

// TestCacheDirBounded pins the server-side registration bound: a
// workstation registering far more versions than its cache can hold must
// not grow the directory past maxRegsPerWS (oldest evicted first), keeping
// server memory O(workstations) rather than O(history).
func TestCacheDirBounded(t *testing.T) {
	d := newCacheDir()
	n := maxRegsPerWS + 500
	for i := 0; i < n; i++ {
		d.register("ws1", "cb/ws1", 1, version.ID(fmt.Sprintf("v%05d", i)))
	}
	if got := d.registrations(); got != maxRegsPerWS {
		t.Fatalf("registrations = %d, want bound %d", got, maxRegsPerWS)
	}
	// Oldest evicted, newest kept.
	if regs := d.collect([]invalidation{{DOV: "v00000"}}); len(regs) != 0 {
		t.Fatal("oldest registration survived the bound")
	}
	if regs := d.collect([]invalidation{{DOV: version.ID(fmt.Sprintf("v%05d", n-1))}}); len(regs) != 1 {
		t.Fatal("newest registration missing")
	}
	// drop() clears both indexes.
	for i := 0; i < n; i++ {
		d.drop(version.ID(fmt.Sprintf("v%05d", i)))
	}
	if got := d.registrations(); got != 0 {
		t.Fatalf("registrations after drop-all = %d", got)
	}
}

// TestCacheEvictionBounded fills the cache past its limit and checks LRU
// eviction keeps it bounded without breaking checkouts.
func TestCacheEvictionBounded(t *testing.T) {
	s := newStack(t, "")
	s.tm.Cache().MaxEntries = 4
	for i := 0; i < 10; i++ {
		s.seedBig(t, fmt.Sprintf("v%02d", i), 2<<10)
	}
	for i := 0; i < 10; i++ {
		dop, err := s.tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dop.Checkout(version.ID(fmt.Sprintf("v%02d", i)), false); err != nil {
			t.Fatal(err)
		}
		if err := dop.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.tm.Cache().Len(); got > 4 {
		t.Fatalf("cache holds %d entries, limit 4", got)
	}
	// Evicted versions simply refetch in full.
	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout("v00", false); err != nil {
		t.Fatal(err)
	}
}

// textObject builds a floorplan around size bytes of seeded pseudo-random
// text: two seeds give unrelated encodings that still share the attribute
// header of the type.
func textObject(seed int64, size int) *catalog.Object {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	for i := range b {
		b[i] = alphabet[rng.Intn(64)]
	}
	return catalog.NewObject("floorplan").
		Set("cell", catalog.Str(string(b))).
		Set("area", catalog.Float(100))
}

// seedObject installs obj as a root version of da1.
func (s *stack) seedObject(t *testing.T, id string, obj *catalog.Object) version.ID {
	t.Helper()
	v := &version.DOV{ID: version.ID(id), DOT: "floorplan", DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := s.repo.Checkin(v, true); err != nil {
		t.Fatal(err)
	}
	if err := s.scopes.Own("da1", id); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// deriveEdit checks base out for derivation on tm, overwrites about 1 % of
// its payload in one run and checks the result in.
func deriveEdit(t *testing.T, tm *ClientTM, base version.ID, seed int64) version.ID {
	t.Helper()
	dop, err := tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(base, true)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := obj.Get("cell")
	fresh, _ := textObject(seed, len(cell.S)/100).Get("cell")
	at := len(cell.S) / 3
	obj.Set("cell", catalog.Str(cell.S[:at]+fresh.S+cell.S[at+len(fresh.S):]))
	if err := dop.SetWorkspace(obj); err != nil {
		t.Fatal(err)
	}
	id, err := dop.Checkin(version.StatusWorking, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dop.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// readVersions checks the given versions out, in order, in one DOP.
func readVersions(t *testing.T, tm *ClientTM, ids ...version.ID) {
	t.Helper()
	dop, err := tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := dop.Checkout(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := dop.Abort(); err != nil {
		t.Fatal(err)
	}
}

// secondTM opens another volatile workstation on the stack's transport.
func (s *stack) secondTM(t *testing.T, id string) *ClientTM {
	t.Helper()
	client := rpc.NewClient(s.trans, id)
	client.Backoff = 0
	tm, _, err := NewClientTM(id, client, serverAddr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close() })
	return tm
}

// TestCheckoutModeFollowsTheBase pins what the delta negotiation answers
// through the client: an unrelated base (the MRU offer of a bulk reader)
// gets the full version, counted as such, and a relative 1 % away still
// gets a delta.
func TestCheckoutModeFollowsTheBase(t *testing.T) {
	s := newStack(t, "")
	const size = 64 << 10
	a := s.seedObject(t, "a", textObject(1, size))
	b := s.seedObject(t, "b", textObject(2, size))
	a1 := deriveEdit(t, s.tm, a, 3)

	tm2 := s.secondTM(t, "ws2")
	readVersions(t, tm2, a)
	before := tm2.WireStats()
	readVersions(t, tm2, b) // offers a: shares the type's header, nothing else
	mid := tm2.WireStats()
	if mid.FullCheckouts != before.FullCheckouts+1 || mid.DeltaCheckouts != 0 {
		t.Fatalf("checkout against an unrelated base: %+v", mid)
	}
	if in := mid.CheckoutBytesIn - before.CheckoutBytesIn; in < size {
		t.Fatalf("full checkout transferred %d bytes of a %d-byte object", in, size)
	}
	tm2.Cache().Drop(b)
	readVersions(t, tm2, a1) // offers a, 1 % away
	after := tm2.WireStats()
	if after.DeltaCheckouts != 1 || after.FullCheckouts != mid.FullCheckouts {
		t.Fatalf("checkout against a 1%% relative: %+v", after)
	}
	if in := after.CheckoutBytesIn - mid.CheckoutBytesIn; in*5 > size {
		t.Fatalf("delta checkout transferred %d bytes for a %d-byte object", in, size)
	}
}

// TestNotModifiedRefreshKeepsSupersession is the regression test of the
// in-place refresh: the NotModified answer to a re-checkout must not erase
// the supersession mark a callback left on the entry, and on a durable cache
// a refresh that changes nothing must not grow the log.
func TestNotModifiedRefreshKeepsSupersession(t *testing.T) {
	s := newStack(t, t.TempDir())
	v0 := s.seedObject(t, "v0", textObject(1, 8<<10))
	n := s.wireCallbacks(t, s.tm, "cb/ws1")
	readVersions(t, s.tm, v0)

	v1 := deriveEdit(t, s.secondTM(t, "ws2"), v0, 2)
	n.Flush()
	cache := s.tm.Cache()
	if by := cache.SupersededBy(v0); by != v1 {
		t.Fatalf("cached %s superseded by %q, want %s", v0, by, v1)
	}

	readVersions(t, s.tm, v0)
	if st := s.tm.WireStats(); st.NotModified != 1 {
		t.Fatalf("re-checkout was not NotModified: %+v", st)
	}
	if by := cache.SupersededBy(v0); by != v1 {
		t.Fatalf("NotModified refresh reset the supersession mark to %q", by)
	}
	// That refresh carried the mark to disk; it survives a restart.
	reopened, err := OpenObjectCache(cache.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if by := reopened.SupersededBy(v0); by != v1 {
		t.Fatalf("persisted supersession mark = %q, want %s", by, v1)
	}

	// A refresh with nothing new appends nothing.
	path := filepath.Join(cache.dir, cacheLogName)
	want, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	readVersions(t, s.tm, v0)
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != want.Size() {
		t.Fatalf("no-op refresh grew the cache log %d → %d bytes", want.Size(), got.Size())
	}
	if st := s.tm.WireStats(); st.NotModified != 2 {
		t.Fatalf("second re-checkout was not NotModified: %+v", st)
	}
}

// TestBaseChoiceFollowsDerivation: a reviewer reads the tip, the author
// derives a new tip, the reviewer reads three unrelated older versions and
// then the new tip. The offer must be the previous tip (known from the
// supersession callback), not the most recently used entry — so the answer
// is a delta.
func TestBaseChoiceFollowsDerivation(t *testing.T) {
	s := newStack(t, "")
	const size = 16 << 10
	tip := s.seedObject(t, "tip0", textObject(1, size))
	var older []version.ID
	for i := 0; i < 3; i++ {
		older = append(older, s.seedObject(t, fmt.Sprintf("old%d", i), textObject(int64(10+i), size)))
	}
	reviewer := s.secondTM(t, "ws2")
	n := s.wireCallbacks(t, reviewer, "cb/ws2")

	readVersions(t, reviewer, tip)
	next := deriveEdit(t, s.tm, tip, 2)
	n.Flush()
	readVersions(t, reviewer, older...)
	before := reviewer.WireStats()
	if before.DeltaCheckouts != 0 {
		t.Fatalf("unrelated reads were answered with deltas: %+v", before)
	}
	if id, _, ok := reviewer.Cache().BestBase("da1", next); !ok || id != tip {
		t.Fatalf("base offered for %s = %q, want its parent %s", next, id, tip)
	}
	readVersions(t, reviewer, next)
	after := reviewer.WireStats()
	if after.DeltaCheckouts != 1 || after.FullCheckouts != before.FullCheckouts {
		t.Fatalf("new tip was not a delta against the previous one: %+v", after)
	}

	// The other direction: with only a child of the wanted version cached
	// among unrelated entries, the child is offered; with neither, the MRU.
	c, _ := OpenObjectCache("")
	c.Put(dovMeta{ID: "child", DA: "da1", Parents: []version.ID{"p"}}, []byte{1}, nil)
	c.Put(dovMeta{ID: "x", DA: "da1"}, []byte{2}, nil)
	c.Put(dovMeta{ID: "elsewhere", DA: "da2", Parents: []version.ID{"p"}}, []byte{3}, nil)
	if id, _, _ := c.BestBase("da1", "p"); id != "child" {
		t.Fatalf("base offered for p = %q, want its cached child", id)
	}
	if id, _, _ := c.BestBase("da1", "q"); id != "x" {
		t.Fatalf("base offered for q = %q, want the most recent entry x", id)
	}
	if id, _, _ := c.BestBase("da1", ""); id != "x" {
		t.Fatalf("checkin base = %q, want the most recent entry x", id)
	}
}

// TestColdCheckoutDetectsCorruption: a version a checkpoint made cold (it
// has a child) is read back from the chain file when a checkout ships it.
// With one payload byte flipped in that file the wire checkout fails; the
// workstation gets an error, never the bytes.
func TestColdCheckoutDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	marker := "cold-victim-marker"
	v0 := version.ID("v0")
	if err := s.repo.Checkin(&version.DOV{ID: v0, DOT: "floorplan", DA: "da1", Object: bigObject(marker, 4<<10)}, true); err != nil {
		t.Fatal(err)
	}
	v1 := &version.DOV{ID: "v1", DOT: "floorplan", DA: "da1", Parents: []version.ID{v0}, Object: bigObject("child", 4<<10)}
	if err := s.repo.Checkin(v1, false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"v0", "v1"} {
		if err := s.scopes.Own("da1", id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.repo.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir + "/server")
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, fe := range files {
		if !strings.HasPrefix(fe.Name(), "snap-") {
			continue
		}
		name := dir + "/server/" + fe.Name()
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, []byte(marker)); i >= 0 {
			data[i] ^= 0x20
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no chain file holds v0's payload")
	}
	dop, err := s.tm.Begin("", "da1")
	if err != nil {
		t.Fatal(err)
	}
	defer dop.Abort() //nolint:errcheck // cleanup
	obj, err := dop.Checkout(v0, false)
	if err == nil || obj != nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("checkout of a corrupted cold version = %v, %v; want a checksum error", obj, err)
	}
	if _, err := dop.Checkout("v1", false); err != nil {
		t.Fatalf("checkout of the resident leaf: %v", err)
	}
}

// editedObject returns obj with about 1 % of its cell overwritten at the
// given fraction of its length by seeded text.
func editedObject(obj *catalog.Object, seed int64, at float64) *catalog.Object {
	cell, _ := obj.Get("cell")
	fresh, _ := textObject(seed, len(cell.S)/100).Get("cell")
	i := int(at * float64(len(cell.S)-len(fresh.S)))
	return obj.Clone().Set("cell", catalog.Str(cell.S[:i]+fresh.S+cell.S[i+len(fresh.S):]))
}

// checkinUnder installs obj as a version of da1 with the given parents (an
// adopted root when root is set) and returns its ID.
func (s *stack) checkinUnder(t *testing.T, id string, obj *catalog.Object, root bool, parents ...version.ID) version.ID {
	t.Helper()
	v := &version.DOV{ID: version.ID(id), DOT: "floorplan", DA: "da1", Parents: parents, Object: obj, Status: version.StatusWorking}
	if err := s.repo.Checkin(v, root); err != nil {
		t.Fatal(err)
	}
	if err := s.scopes.Own("da1", id); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// serverCheckout runs one wire checkout of target offering base, straight
// through the server-TM's handler, and returns the decoded answer after
// checking that a delta reconstructs the target exactly.
func (s *stack) serverCheckout(t *testing.T, target, base version.ID) checkoutResp {
	t.Helper()
	_, baseEnc, baseHash, err := s.repo.Lookup(base)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.server.checkoutWire(checkoutMsg{DOP: "lineage-dop", DA: "da1", DOV: target, BaseID: base, BaseHash: baseHash}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeCheckoutResp(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mode == coDelta {
		_, want, _, err := s.repo.Lookup(target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := binenc.ApplyDelta(baseEnc, resp.Delta)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("delta %s→%s reconstructs wrong content (err %v)", base, target, err)
		}
	}
	return resp
}

// TestCheckoutDeltaFollowsLineage: the server-TM diffs a checkout miss only
// against a base that shares a derivation ancestor with the target. An offer
// from another lineage is answered in full even when its bytes are 1 % away,
// because nothing in the graph says they are related; a relative is diffed
// however far down its line it sits, through merges and adopted roots.
func TestCheckoutDeltaFollowsLineage(t *testing.T) {
	s := newStack(t, "")
	const size = 64 << 10
	if err := s.server.Begin("lineage-dop", "da1"); err != nil {
		t.Fatal(err)
	}
	aObj := textObject(1, size)
	a := s.checkinUnder(t, "a", aObj, true)

	// Another root whose bytes are 1 % away from a: the matcher would find a
	// delta, but the graph answers first, and in full.
	twin := s.checkinUnder(t, "twin", editedObject(aObj, 2, 0.5), true)
	if r := s.serverCheckout(t, a, twin); r.Mode != coFull {
		t.Fatalf("offer from another root: mode %d, want full", r.Mode)
	}
	if r := s.serverCheckout(t, twin, a); r.Mode != coFull {
		t.Fatalf("offer from another root (reversed): mode %d, want full", r.Mode)
	}
	// An adopted root whose parent lies outside the repository opens a
	// lineage of its own.
	foreign := s.checkinUnder(t, "foreign", editedObject(aObj, 3, 0.25), true, "elsewhere")
	if r := s.serverCheckout(t, foreign, a); r.Mode != coFull {
		t.Fatalf("offer to a root with a foreign parent: mode %d, want full", r.Mode)
	}

	// 40 derivations of 1 % edits, each at a different place: the base at
	// the far end of the line still gets a delta.
	tip, obj := a, aObj
	for i := 0; i < 40; i++ {
		obj = editedObject(obj, int64(100+i), float64(i)/40)
		tip = s.checkinUnder(t, fmt.Sprintf("a%d", i+1), obj, false, tip)
	}
	if r := s.serverCheckout(t, tip, a); r.Mode != coDelta {
		t.Fatalf("base 40 derivations up the line: mode %d, want delta", r.Mode)
	}

	// A merge of two lineages: half of its payload comes from each parent,
	// and a version of either lineage is a relative.
	bObj := textObject(4, size)
	b := s.checkinUnder(t, "b", bObj, true)
	bObj = editedObject(bObj, 5, 0.1)
	b1 := s.checkinUnder(t, "b1", bObj, false, b)
	cellA, _ := obj.Get("cell")
	cellB, _ := bObj.Get("cell")
	merged := obj.Clone().Set("cell", catalog.Str(cellA.S[:size/2]+cellB.S[size/2:]))
	m := s.checkinUnder(t, "m", merged, false, tip, b1)
	for _, base := range []version.ID{a, "a20", b, b1} {
		if r := s.serverCheckout(t, m, base); r.Mode != coDelta {
			t.Fatalf("merge offered %s of one of its lineages: mode %d, want delta", base, r.Mode)
		}
	}
	if r := s.serverCheckout(t, m, twin); r.Mode != coFull {
		t.Fatalf("merge offered a root of neither lineage: mode %d, want full", r.Mode)
	}

	// A root adopted with a parent the repository holds joins that parent's
	// lineage.
	adopted := s.checkinUnder(t, "adopted", editedObject(aObj, 6, 0.75), true, "a3")
	if r := s.serverCheckout(t, adopted, a); r.Mode != coDelta {
		t.Fatalf("root adopted from a3 offered a: mode %d, want delta", r.Mode)
	}
	if r := s.serverCheckout(t, adopted, twin); r.Mode != coFull {
		t.Fatalf("root adopted from a3 offered another root: mode %d, want full", r.Mode)
	}
}
