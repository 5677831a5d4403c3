package txn

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
)

// Fault points traversed by the server-TM's 2PC resource hooks (the
// scenario harness arms them to simulate crashes at protocol steps).
const (
	// FaultStagePersisted fires in Prepare after the staged DOV is durable
	// in the repository, before the commit vote is promised.
	FaultStagePersisted = "txn:stage-persisted"
	// FaultCheckinInstalled fires in Commit after the DOV is durably
	// installed, before the post-checkin tail (scope ownership, cache
	// registration, staged-entry cleanup) — the retained-staged-entry
	// retry window.
	FaultCheckinInstalled = "txn:checkin-installed"
)

// FaultPoints lists every fault point owned by this package, for coverage
// reports.
var FaultPoints = []string{FaultStagePersisted, FaultCheckinInstalled, FaultLeaseExpired, FaultHeartbeatDrop}

// Errors reported by the server-TM.
var (
	ErrUnknownDOP = errors.New("txn: unknown DOP")
	ErrNotStaged  = errors.New("txn: no staged DOV for transaction")
	// ErrDeltaBase reports a delta checkin whose base or reconstructed
	// content failed hash verification. It is a hard failure: nothing is
	// staged, nothing is logged — a wrong base must never corrupt the
	// repository (DESIGN.md §4).
	ErrDeltaBase = errors.New("txn: checkin delta failed hash verification")
)

// ServerTM is the server half of the transaction manager: it guards the
// design data repository, controls concurrent access to DOVs, and installs
// derived versions atomically (Sect. 5.2).
//
// Admission state is sharded (DESIGN.md §3.6): DOP registrations hash over
// dopShards and staged checkins over stagedShards, so checkouts and checkins
// of distinct DOPs/transactions never contend on one TM mutex — the TE-level
// counterpart of the sharded lock manager beneath it.
type ServerTM struct {
	repo   *repo.Repository
	locks  *lock.Manager
	scopes *lock.ScopeTable
	// cdir tracks which workstation caches hold which versions (DESIGN.md
	// §4); volatile, rebuilt by re-registration after a server restart.
	cdir *cacheDir
	// LockTimeout bounds lock waits (default 5s).
	LockTimeout time.Duration
	// LeaseTTL is the workstation lease lifetime (DefaultLeaseTTL when
	// zero). A workstation silent for this long is reclaimed by the reaper.
	LeaseTTL time.Duration
	// Faults is the fault-point registry traversed at the txn fault points
	// (nil-safe). Set before serving; tests only.
	Faults *fault.Registry

	dops     [tmShards]dopShard
	staged   [tmShards]stagedShard
	notifier atomic.Pointer[rpc.Notifier]
	// replInfo reports role/epoch/lag for MethodHealth (SetReplInfo).
	replInfo atomic.Pointer[func() (string, uint64, uint64, uint64)]

	// bumpMu guards bumpAcked: per callback address, the notifier loss count
	// already answered with a cache-epoch bump (DESIGN.md §4 reconnect fix).
	bumpMu    sync.Mutex
	bumpAcked map[string]uint64

	// leaseMu guards the lease table and the reaper lifecycle fields.
	leaseMu  sync.Mutex
	leases   map[string]*wsLease
	reapStop chan struct{}
	reapDone chan struct{}
}

// tmShards is the admission fan-out. Shard count beyond the workstation
// count buys nothing; 16 comfortably covers the multi-workstation scenarios
// while keeping the struct small.
const tmShards = 16

// dopShard holds the DOP registrations hashing onto it. Its mutex also
// guards the derivationLocks sets of those DOPs.
type dopShard struct {
	mu sync.Mutex
	m  map[string]*serverDOP
}

// stagedShard holds the staged checkins whose transaction IDs hash onto it.
type stagedShard struct {
	mu sync.Mutex
	m  map[string]*stagedCheckin
}

// tmHash hashes an identifier onto a shard (FNV-1a, allocation-free).
func tmHash(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h % tmShards
}

func (s *ServerTM) dopShard(dop string) *dopShard        { return &s.dops[tmHash(dop)] }
func (s *ServerTM) stagedShard(txid string) *stagedShard { return &s.staged[tmHash(txid)] }

type serverDOP struct {
	da string
	// ws is the workstation whose lease the DOP lives under ("" for direct
	// API use without a session).
	ws string
	// derivationLocks tracks D locks held on behalf of the DOP. Guarded by
	// the owning dopShard's mutex.
	derivationLocks map[version.ID]bool
}

type stagedCheckin struct {
	dop string
	dov *version.DOV
	// raw is the encoded stageMsg as received from the wire; Prepare
	// persists it verbatim instead of re-encoding the version. Delta-form
	// stage messages are expanded before staging, so raw (and with it every
	// durable staged record) is always full-form — recovery never needs a
	// delta base (§3.5 invariants untouched).
	raw      []byte
	root     bool
	prepared bool
	// ws/cbAddr/epoch register the committing workstation's cache for the
	// new version once Commit installs it.
	ws     string
	cbAddr string
	epoch  uint64
}

// NewServerTM builds a server-TM over the repository, lock manager and scope
// table (the latter shared with the cooperation manager). Checkin
// transactions that were prepared (vote logged, staged DOV persisted) before
// a server crash are recovered so the coordinator can resolve them.
func NewServerTM(r *repo.Repository, lm *lock.Manager, st *lock.ScopeTable) *ServerTM {
	s := &ServerTM{
		repo:        r,
		locks:       lm,
		scopes:      st,
		cdir:        newCacheDir(),
		LockTimeout: 5 * time.Second,
		leases:      make(map[string]*wsLease),
		bumpAcked:   make(map[string]uint64),
	}
	for i := range s.dops {
		s.dops[i].m = make(map[string]*serverDOP)
	}
	for i := range s.staged {
		s.staged[i].m = make(map[string]*stagedCheckin)
	}
	for _, key := range r.ListMeta(stagedMetaPrefix) {
		data, err := r.GetMeta(key)
		if err != nil {
			continue
		}
		m, err := decodeStage(data)
		if err != nil {
			continue
		}
		v, err := wireToDOV(m.DOV)
		if err != nil {
			continue
		}
		sh := s.stagedShard(m.TxID)
		sh.m[m.TxID] = &stagedCheckin{dop: m.DOP, dov: v, root: m.Root, prepared: true}
	}
	return s
}

// stagedMetaPrefix keys persisted prepared-but-unresolved checkins.
const stagedMetaPrefix = "tm/staged/"

// Repo exposes the underlying repository (for server-side managers).
func (s *ServerTM) Repo() *repo.Repository { return s.repo }

// Scopes exposes the scope table (shared with the cooperation manager).
func (s *ServerTM) Scopes() *lock.ScopeTable { return s.scopes }

// Begin registers a DOP for a DA (Begin-of-DOP, Sect. 5.2).
func (s *ServerTM) Begin(dop, da string) error {
	return s.beginWS(dop, da, "")
}

// beginWS is Begin plus the workstation session: a non-empty ws opens (or
// renews) the workstation's lease and records the DOP under it for
// reclamation on expiry.
func (s *ServerTM) beginWS(dop, da, ws string) error {
	if dop == "" || da == "" {
		return errors.New("txn: Begin needs DOP and DA identifiers")
	}
	sh := s.dopShard(dop)
	sh.mu.Lock()
	if cur, dup := sh.m[dop]; dup {
		if cur.da == da {
			// Idempotent re-attach after workstation recovery; adopt the
			// (possibly new) session.
			cur.ws = ws
			sh.mu.Unlock()
			s.touchLease(ws, dop)
			return nil
		}
		sh.mu.Unlock()
		return fmt.Errorf("txn: DOP %s already registered for DA %s", dop, cur.da)
	}
	sh.m[dop] = &serverDOP{da: da, ws: ws, derivationLocks: make(map[version.ID]bool)}
	sh.mu.Unlock()
	s.touchLease(ws, dop)
	return nil
}

// lookupDOP fetches a registration under its shard lock.
func (s *ServerTM) lookupDOP(dop string) (*serverDOP, bool) {
	sh := s.dopShard(dop)
	sh.mu.Lock()
	st, ok := sh.m[dop]
	sh.mu.Unlock()
	return st, ok
}

// Checkout reads a DOV for the DOP. The version must lie in the DOP's DA
// scope; with derive set a long derivation lock is acquired so no other DOP
// can check the version out for derivation concurrently (Sect. 5.2). A
// short S lock protects the read itself.
func (s *ServerTM) Checkout(dop string, dov version.ID, derive bool) (*version.DOV, error) {
	v, _, _, err := s.checkoutEnc(dop, dov, derive, time.Time{})
	return v, err
}

// lockBudget bounds a lock wait by LockTimeout and, when the caller
// propagated a deadline, by the time it is still willing to spend — there is
// no point winning a lock for a caller that already hung up. An expired
// deadline yields 0, which lock.Acquire treats as "do not wait".
func (s *ServerTM) lockBudget(deadline time.Time) time.Duration {
	to := s.LockTimeout
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem < to {
			to = rem
		}
		if to < 0 {
			to = 0
		}
	}
	return to
}

// checkoutEnc is Checkout plus the canonical payload encoding and content
// hash of the version (memoized in the repository), which the wire layer
// needs for the NotModified/delta negotiation. deadline bounds lock waits
// (zero = LockTimeout only).
func (s *ServerTM) checkoutEnc(dop string, dov version.ID, derive bool, deadline time.Time) (*version.DOV, []byte, []byte, error) {
	st, ok := s.lookupDOP(dop)
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrUnknownDOP, dop)
	}
	if err := s.scopes.CheckAccess(st.da, string(dov)); err != nil {
		return nil, nil, nil, err
	}
	res := "dov/" + string(dov)
	if derive {
		if err := s.locks.Acquire(dop, res, lock.D, s.lockBudget(deadline)); err != nil {
			return nil, nil, nil, err
		}
		sh := s.dopShard(dop)
		sh.mu.Lock()
		st.derivationLocks[dov] = true
		sh.mu.Unlock()
	} else {
		if err := s.locks.Acquire(dop, res, lock.S, s.lockBudget(deadline)); err != nil {
			return nil, nil, nil, err
		}
		defer s.locks.Release(dop, res) //nolint:errcheck // short lock
	}
	v, err := s.repo.Get(dov)
	if err == nil {
		var enc, hash []byte
		if enc, hash, err = s.repo.EncodedObject(dov); err == nil {
			return v, enc, hash, nil
		}
	}
	if derive {
		s.releaseDerivation(dop, dov)
	}
	return nil, nil, nil, err
}

// checkoutWire serves one MethodCheckout call: perform the checkout, record
// the workstation's cache registration, and answer in the cheapest mode the
// client's offered base allows — NotModified (it already holds the target),
// a binenc delta (it holds a verified relative), or the full DOV. When the
// workstation's callback endpoint has lost invalidations since its last
// negotiation, the answer additionally orders a cache-epoch bump.
func (s *ServerTM) checkoutWire(m checkoutMsg, deadline time.Time) ([]byte, error) {
	v, enc, hash, err := s.checkoutEnc(m.DOP, m.DOV, m.Derive, deadline)
	if err != nil {
		return nil, err
	}
	s.cdir.register(m.WS, m.CBAddr, m.Epoch, m.DOV)
	resp := checkoutResp{Hash: hash, BumpEpoch: s.noteCallbackLoss(m.CBAddr)}
	meta := dovMeta{ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents, Status: v.Status, Fulfilled: v.Fulfilled}
	switch {
	case m.BaseID == m.DOV && bytes.Equal(m.BaseHash, hash):
		resp.Mode, resp.Meta = coNotModified, meta
	default:
		if m.BaseID != "" {
			baseEnc, baseHash, err := s.repo.EncodedObject(m.BaseID)
			if err == nil && bytes.Equal(baseHash, m.BaseHash) {
				if dw := binenc.DeltaPooled(baseEnc, enc); dw != nil {
					resp.Mode, resp.Meta = coDelta, meta
					resp.BaseID, resp.Delta = m.BaseID, dw.Bytes()
					out := resp.encode()
					dw.Free()
					return out, nil
				}
			}
			// Unknown base, divergent hash or incompressible pair: fall
			// through to a full transfer — the client's offer is advisory.
		}
		resp.Mode = coFull
		resp.DOV = dovWire{
			ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents,
			Object: enc, Status: v.Status, Fulfilled: v.Fulfilled,
		}
	}
	return resp.encode(), nil
}

// noteCallbackLoss reports whether addr's callback endpoint has dropped
// invalidations since the last checkout negotiation consumed the count. A
// true answer travels exactly once per loss increment: the workstation bumps
// its cache epoch, retiring metadata the lost callbacks should have refreshed
// (the stale-invalidation window of DESIGN.md §4).
func (s *ServerTM) noteCallbackLoss(addr string) bool {
	if addr == "" {
		return false
	}
	n := s.notifier.Load()
	if n == nil {
		return false
	}
	d := n.DroppedAt(addr)
	if d == 0 {
		return false
	}
	s.bumpMu.Lock()
	defer s.bumpMu.Unlock()
	if d <= s.bumpAcked[addr] {
		return false
	}
	s.bumpAcked[addr] = d
	return true
}

func (s *ServerTM) releaseDerivation(dop string, dov version.ID) {
	s.locks.Release(dop, "dov/"+string(dov)) //nolint:errcheck // may already be gone
	sh := s.dopShard(dop)
	sh.mu.Lock()
	if st, ok := sh.m[dop]; ok {
		delete(st.derivationLocks, dov)
	}
	sh.mu.Unlock()
}

// ReleaseDerivationLock drops a derivation lock before DOP end (used when a
// designer abandons an input version).
func (s *ServerTM) ReleaseDerivationLock(dop string, dov version.ID) error {
	sh := s.dopShard(dop)
	sh.mu.Lock()
	st, ok := sh.m[dop]
	if ok {
		ok = st.derivationLocks[dov]
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: derivation lock on %s by %s", lock.ErrNotHeld, dov, dop)
	}
	s.releaseDerivation(dop, dov)
	return nil
}

// Stage receives a derived DOV ahead of the checkin two-phase commit. The
// version is validated at prepare time. raw, if non-nil, is the encoded
// stageMsg exactly as received; Prepare persists it without re-encoding.
func (s *ServerTM) Stage(dop, txid string, v *version.DOV, root bool, raw []byte) error {
	return s.stage(dop, txid, v, root, raw, "", "", 0)
}

// stage is Stage plus the committing workstation's cache identity, which
// Commit registers for the new version (the workstation retains the bytes it
// just shipped, so its next checkout of this version is a NotModified).
func (s *ServerTM) stage(dop, txid string, v *version.DOV, root bool, raw []byte, ws, cbAddr string, epoch uint64) error {
	st, ok := s.lookupDOP(dop)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDOP, dop)
	}
	if v.DA == "" {
		v.DA = st.da
		raw = nil // the wire form lacks the DA; fall back to re-encoding
	}
	sh := s.stagedShard(txid)
	sh.mu.Lock()
	sh.m[txid] = &stagedCheckin{dop: dop, dov: v, raw: raw, root: root, ws: ws, cbAddr: cbAddr, epoch: epoch}
	sh.mu.Unlock()
	return nil
}

// expandStage resolves a wire stage message to its full form: delta-encoded
// payloads are reconstructed from the named base and every content hash is
// verified before anything reaches the staging table. A mismatch is a hard
// ErrDeltaBase failure — wrong bases must never corrupt the repository.
// It returns the full payload encoding and whether the message arrived in
// delta form (in which case the caller must not reuse the wire bytes as the
// durable staged record).
func (s *ServerTM) expandStage(m *stageMsg) (wasDelta bool, err error) {
	if m.BaseID == "" {
		if len(m.Hash) > 0 && !bytes.Equal(catalog.HashEncoded(m.DOV.Object), m.Hash) {
			return false, fmt.Errorf("%w: full payload of %s does not match its declared hash", ErrDeltaBase, m.DOV.ID)
		}
		return false, nil
	}
	if len(m.Hash) == 0 {
		return true, fmt.Errorf("%w: delta checkin of %s carries no content hash", ErrDeltaBase, m.DOV.ID)
	}
	baseEnc, baseHash, err := s.repo.EncodedObject(m.BaseID)
	if err != nil {
		return true, fmt.Errorf("%w: base %s: %w", ErrDeltaBase, m.BaseID, err)
	}
	if !bytes.Equal(baseHash, m.BaseHash) {
		return true, fmt.Errorf("%w: base %s hash diverges from the client's", ErrDeltaBase, m.BaseID)
	}
	full, err := binenc.ApplyDelta(baseEnc, m.Delta)
	if err != nil {
		return true, fmt.Errorf("%w: %w", ErrDeltaBase, err)
	}
	if !bytes.Equal(catalog.HashEncoded(full), m.Hash) {
		return true, fmt.Errorf("%w: reconstructed %s does not match its declared hash", ErrDeltaBase, m.DOV.ID)
	}
	m.DOV.Object = full
	m.BaseID, m.BaseHash, m.Delta = "", nil, nil
	return true, nil
}

// Prepare implements rpc.Resource: validate the staged DOV (schema
// consistency plus parent-scope membership) and promise to commit.
func (s *ServerTM) Prepare(txid string) (rpc.Vote, error) {
	sh := s.stagedShard(txid)
	sh.mu.Lock()
	sc, ok := sh.m[txid]
	sh.mu.Unlock()
	if !ok {
		return rpc.VoteAbort, fmt.Errorf("%w: %s", ErrNotStaged, txid)
	}
	v := sc.dov
	if v.Object == nil || v.Object.Type != v.DOT {
		return rpc.VoteAbort, nil
	}
	if err := s.repo.Catalog().Validate(v.Object); err != nil {
		return rpc.VoteAbort, nil //nolint:nilerr // vote conveys the refusal
	}
	if !sc.root {
		for _, p := range v.Parents {
			if !s.scopes.InScope(v.DA, string(p)) {
				return rpc.VoteAbort, nil
			}
		}
	}
	// Persist the staged version before promising: a prepared checkin must
	// survive a server crash so the coordinator's decision can be applied
	// at recovery. The wire payload is reused verbatim when possible.
	stageData := sc.raw
	if stageData == nil {
		objData, err := catalog.EncodeObject(v.Object)
		if err != nil {
			return rpc.VoteAbort, nil //nolint:nilerr // vote conveys the refusal
		}
		stageData = stageMsg{
			DOP: sc.dop, TxID: txid, Root: sc.root,
			DOV: dovWire{ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents, Object: objData, Status: v.Status, Fulfilled: v.Fulfilled},
		}.encode()
	}
	if err := s.repo.PutMeta(stagedMetaPrefix+txid, stageData); err != nil {
		return rpc.VoteAbort, nil //nolint:nilerr // durability failed: refuse
	}
	if err := s.Faults.At(FaultStagePersisted); err != nil {
		// Simulated server death after the durable stage: the staged
		// record survives restart and is resolved against the coordinator.
		return rpc.VoteAbort, err
	}
	sh.mu.Lock()
	cur, still := sh.m[txid]
	if still && cur == sc {
		sc.prepared = true
	}
	sh.mu.Unlock()
	if !still || cur != sc {
		// The lease reaper presumed-abort discarded the entry between the
		// durable stage and the promise (its owner's lease expired
		// mid-prepare). Voting commit now would promise a branch the server
		// no longer tracks — and an unknown txid reads as already-committed
		// at Commit — so withdraw the stage record and refuse.
		s.repo.DeleteMeta(stagedMetaPrefix + txid) //nolint:errcheck // cleanup
		return rpc.VoteAbort, nil
	}
	return rpc.VoteCommit, nil
}

// Commit implements rpc.Resource: install the staged DOV durably. A short X
// lock on the DA's derivation graph serializes concurrent checkins of DOPs
// of the same DA ("the TM has to protect the proliferation of the DA's
// derivation graph ... employing a locking protocol based on short locks",
// Sect. 5.2).
func (s *ServerTM) Commit(txid string) error {
	sh := s.stagedShard(txid)
	sh.mu.Lock()
	sc, ok := sh.m[txid]
	sh.mu.Unlock()
	if !ok {
		return nil // idempotent: already committed and cleaned up
	}
	v := sc.dov
	graphRes := "graph/" + v.DA
	if err := s.locks.Acquire(sc.dop, graphRes, lock.X, s.LockTimeout); err != nil {
		return err
	}
	defer s.locks.Release(sc.dop, graphRes) //nolint:errcheck // short lock

	// CheckinCleanup installs the DOV and drops the staged record in one
	// commit batch. A duplicate DOV means a previous incarnation already
	// installed it (crash between checkin and staged-record cleanup, or a
	// retry after a post-checkin tail failure below); Commit must be
	// idempotent, so treat it as success and only clean up.
	err := s.repo.CheckinCleanup(v, sc.root, stagedMetaPrefix+txid)
	if errors.Is(err, version.ErrDuplicateDOV) {
		s.repo.DeleteMeta(stagedMetaPrefix + txid) //nolint:errcheck // cleanup
		err = nil
	}
	if err != nil {
		return err
	}
	if err := s.Faults.At(FaultCheckinInstalled); err != nil {
		// Simulated server death inside the retained-staged-entry window:
		// the DOV is durably installed, the staged record survives, and a
		// retried Commit converges through the duplicate path above.
		return err
	}
	// Post-checkin tail. The version is durably installed from here on, so
	// a failure must not read as "commit rolled back" — it can only mean
	// "commit incomplete, retry". Scope ownership gates every later
	// checkout of the version (Sect. 5.4), so its failure is surfaced to
	// the coordinator while the staged entry is RETAINED: a retried Commit
	// re-enters through the idempotent duplicate path above and re-runs
	// exactly this tail until it converges.
	if err := s.scopes.Own(v.DA, string(v.ID)); err != nil {
		return fmt.Errorf("txn: checkin %s durably installed but scope ownership failed (commit retry converges): %w", txid, err)
	}
	// Cache registration is best-effort by design: losing it costs one
	// NotModified optimization, never correctness — every checkout
	// revalidates content hashes server-side (DESIGN.md §4).
	s.cdir.register(sc.ws, sc.cbAddr, sc.epoch, v.ID)
	sh.mu.Lock()
	delete(sh.m, txid)
	sh.mu.Unlock()
	return nil
}

// CacheRegistrations reports the number of live workstation cache
// registrations (diagnostics, tests).
func (s *ServerTM) CacheRegistrations() int { return s.cdir.registrations() }

// Abort implements rpc.Resource: discard the staged DOV (presumed abort:
// unknown transactions are fine).
func (s *ServerTM) Abort(txid string) error {
	s.repo.DeleteMeta(stagedMetaPrefix + txid) //nolint:errcheck // cleanup
	sh := s.stagedShard(txid)
	sh.mu.Lock()
	delete(sh.m, txid)
	sh.mu.Unlock()
	return nil
}

// EndDOP finishes a DOP at the server: releases its derivation locks and
// forgets its registration. Used by both commit and abort paths ("the
// server-TM is firstly asked to release the derivation locks held",
// Sect. 5.2).
func (s *ServerTM) EndDOP(dop string) {
	sh := s.dopShard(dop)
	sh.mu.Lock()
	st, ok := sh.m[dop]
	var held []version.ID
	var ws string
	if ok {
		delete(sh.m, dop)
		ws = st.ws
		// Snapshot under the shard lock: a checkout racing EndDOP may still
		// hold st and write its lock set.
		held = make([]version.ID, 0, len(st.derivationLocks))
		for dov := range st.derivationLocks {
			held = append(held, dov)
		}
	}
	sh.mu.Unlock()
	if !ok {
		return
	}
	s.dropDOPFromLease(ws, dop)
	for _, dov := range held {
		s.locks.Release(dop, "dov/"+string(dov)) //nolint:errcheck // cleanup
	}
	s.locks.ReleaseAll(dop)
}

// ActiveDOPs returns the registered DOP count (diagnostics).
func (s *ServerTM) ActiveDOPs() int {
	n := 0
	for i := range s.dops {
		sh := &s.dops[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Handler returns the transport handler exposing the server-TM protocol
// with no deadline propagation (handlers see zero deadlines). Prefer
// DeadlineHandler on transports that deliver per-call budgets.
func (s *ServerTM) Handler(participant *rpc.Participant) rpc.Handler {
	dh := s.DeadlineHandler(participant)
	return func(method string, payload []byte) ([]byte, error) {
		return dh(time.Time{}, method, payload)
	}
}

// DeadlineHandler returns the transport handler exposing the server-TM
// protocol: Begin-of-DOP, checkout, staging, derivation-lock release, DOP
// end, the lease lifecycle (heartbeat, rejoin, health) and the 2PC
// participant methods. The per-call deadline propagated by the transport
// bounds lock waits, so a generous bulk-checkout budget and a tight
// heartbeat budget get exactly the server-side patience they asked for.
func (s *ServerTM) DeadlineHandler(participant *rpc.Participant) rpc.DeadlineHandler {
	return func(deadline time.Time, method string, payload []byte) ([]byte, error) {
		switch method {
		case MethodBegin:
			m, err := decodeBegin(payload)
			if err != nil {
				return nil, err
			}
			return nil, s.beginWS(m.DOP, m.DA, m.WS)
		case MethodHeartbeat:
			return nil, s.Heartbeat(string(payload))
		case MethodRejoin:
			m, err := decodeRejoin(payload)
			if err != nil {
				return nil, err
			}
			return nil, s.Rejoin(m)
		case MethodHealth:
			return s.HealthInfo().encode(), nil
		case MethodCheckout:
			m, err := decodeCheckout(payload)
			if err != nil {
				return nil, err
			}
			return s.checkoutWire(m, deadline)
		case MethodStage:
			m, err := decodeStage(payload)
			if err != nil {
				return nil, err
			}
			wasDelta, err := s.expandStage(&m)
			if err != nil {
				return nil, err
			}
			v, err := wireToDOV(m.DOV)
			if err != nil {
				return nil, err
			}
			var raw []byte
			if !wasDelta {
				// Copy before retaining: transport buffers are only valid for
				// the duration of the call (the client pools its envelope;
				// see rpc.Handler), and this staged record outlives it.
				raw = append([]byte(nil), payload...)
			}
			// Delta-form wire bytes are never retained; Prepare re-encodes.
			return nil, s.stage(m.DOP, m.TxID, v, m.Root, raw, m.WS, m.CBAddr, m.Epoch)
		case MethodRelease:
			m, err := decodeRelease(payload)
			if err != nil {
				return nil, err
			}
			return nil, s.ReleaseDerivationLock(m.DOP, m.DOV)
		case MethodAbortDOP:
			s.EndDOP(string(payload))
			return nil, nil
		case rpc.MethodPrepare, rpc.MethodCommit, rpc.MethodAbort:
			return participant.Handler()(method, payload)
		default:
			return nil, fmt.Errorf("txn: server-TM: unknown method %q", method)
		}
	}
}

// wireToDOV converts the wire form back to a version.
func wireToDOV(w dovWire) (*version.DOV, error) {
	obj, err := catalog.DecodeObject(w.Object)
	if err != nil {
		return nil, err
	}
	return &version.DOV{
		ID: w.ID, DOT: w.DOT, DA: w.DA, Parents: w.Parents,
		Object: obj, Status: w.Status, Fulfilled: w.Fulfilled,
	}, nil
}
