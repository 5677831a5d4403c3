package txn

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/repl"
	"concord/internal/rpc"
	"concord/internal/version"
	"concord/internal/wal"
)

// Client-side WAL record types (the "workstation disk").
const (
	recCtxSnapshot wal.RecordType = 0x41
	recDOPEnd      wal.RecordType = 0x42
)

// DOP phases.
type Phase uint8

// Phases of a DOP at the client-TM.
const (
	// PhaseActive is the normal processing phase.
	PhaseActive Phase = iota + 1
	// PhaseSuspended marks a DOP parked by Suspend; only Resume is legal.
	PhaseSuspended
	// PhaseCommitted marks a successfully ended DOP.
	PhaseCommitted
	// PhaseAborted marks a rolled-back DOP.
	PhaseAborted
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseActive:
		return "active"
	case PhaseSuspended:
		return "suspended"
	case PhaseCommitted:
		return "committed"
	case PhaseAborted:
		return "aborted"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// Errors reported by the client-TM.
var (
	ErrDOPNotActive    = errors.New("txn: DOP not active")
	ErrNoSavepoint     = errors.New("txn: unknown savepoint")
	ErrNothingToCommit = errors.New("txn: DOP derived no result")
	ErrCheckinFailed   = errors.New("txn: checkin aborted by server")
)

// ctxSnapshot is the durable DOP context: "the current state of the design
// data and information about the state of the application program
// implementing the DOP" (Sect. 5.2, fn. 1).
type ctxSnapshot struct {
	DOP        string
	DA         string
	Phase      Phase
	Inputs     []version.ID
	InputData  map[version.ID][]byte
	Workspace  []byte // encoded working object; nil if none
	Savepoints []namedSnapshot
	Checkins   int
	// Tag distinguishes automatic recovery points from user savepoints in
	// diagnostics.
	Tag string
}

type namedSnapshot struct {
	Name      string
	Workspace []byte
}

// DOP is a design operation: a long-lived ACID transaction processing design
// object versions in checkout → process → checkin steps (Sect. 4.3).
type DOP struct {
	tm *ClientTM

	mu        sync.Mutex
	id        string
	da        string
	phase     Phase
	inputs    []version.ID
	inputData map[version.ID]*catalog.Object
	workspace *catalog.Object
	saves     []namedSnapshot
	checkins  int
	// lastResult is the ID of the most recent successfully checked-in DOV.
	lastResult version.ID
}

// ID returns the DOP identifier.
func (d *DOP) ID() string { return d.id }

// DA returns the owning design activity identifier.
func (d *DOP) DA() string { return d.da }

// Phase returns the current lifecycle phase.
func (d *DOP) Phase() Phase {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.phase
}

// Inputs returns the checked-out version IDs in checkout order.
func (d *DOP) Inputs() []version.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]version.ID(nil), d.inputs...)
}

// LastResult returns the ID of the most recently checked-in DOV ("a handle
// to the DOP's design data", Sect. 5.3).
func (d *DOP) LastResult() version.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastResult
}

// WireStats counts this client-TM's checkout/checkin wire traffic: how many
// transfers the workstation cache downgraded to NotModified handshakes or
// deltas, and the payload bytes that actually crossed the LAN. E14 reads it.
type WireStats struct {
	// Checkouts is the total checkout count; the next three partition it.
	Checkouts, NotModified, DeltaCheckouts, FullCheckouts uint64
	// CheckoutBytesOut / CheckoutBytesIn are request and response payload
	// bytes of checkout calls.
	CheckoutBytesOut, CheckoutBytesIn uint64
	// Checkins is the total staged-checkin count; the next two partition it.
	Checkins, DeltaCheckins, FullCheckins uint64
	// CheckinBytesOut is the staged payload bytes shipped (2PC control
	// messages are O(1) and not counted).
	CheckinBytesOut uint64
}

// ClientTM is the workstation half of the transaction manager. It manages
// the internal structure of DOPs and persists their contexts so that a
// workstation crash rolls back only to the most recent recovery point, not
// to the beginning of the long-lived DOP (Sect. 5.2). Its ObjectCache keeps
// checked-out and checked-in payloads on the workstation so repeated
// transfers shrink to NotModified handshakes or deltas (DESIGN.md §4).
type ClientTM struct {
	id         string
	client     *rpc.Client
	serverAddr string
	coord      *rpc.Coordinator
	log        *wal.Log
	cache      *ObjectCache
	// OpBudget is the per-call time budget for bulk transfers (checkout,
	// staged checkin) — generous, since multi-MiB payloads are legitimate
	// (DefaultOpBudget when zero). Propagated to the server, where it
	// bounds lock waits; heartbeats use their own tight budget instead.
	OpBudget time.Duration

	// srvEpoch is the highest server fencing epoch this workstation has
	// witnessed (health answers, failover promotions). The rpc client stamps
	// it on every call, so a deposed primary refuses this workstation with
	// rpc.ErrStaleEpoch instead of serving split-brain state.
	srvEpoch atomic.Uint64

	mu     sync.Mutex
	dops   map[string]*DOP
	seq    uint64
	cbAddr string
	stats  WireStats
	// standby is the warm-standby server address ("" = no failover target);
	// serverAddr switches to it when Failover promotes it.
	standby string
	// hbStop/hbDone are the heartbeat goroutine's lifecycle channels
	// (nil while no heartbeat runs); see heartbeat.go.
	hbStop chan struct{}
	hbDone chan struct{}
}

// NewClientTM opens a client-TM writing its recovery data under dir (the
// workstation disk; empty disables persistence). The checkout cache lives
// under dir/cache — persistent across workstation crashes, with the epoch
// bump on every open retiring the previous incarnation's callback
// registrations; with dir empty the cache is volatile. Returns the TM and
// any DOP contexts recovered from a previous incarnation, restored at their
// most recent recovery points.
func NewClientTM(id string, client *rpc.Client, serverAddr, dir string) (*ClientTM, []*DOP, error) {
	tm := &ClientTM{
		id:         id,
		client:     client,
		serverAddr: serverAddr,
		dops:       make(map[string]*DOP),
	}
	if client.Epoch == nil {
		// Stamp every call with the highest fencing epoch this workstation
		// has witnessed (the client is per-workstation in every deployment;
		// an already-wired client is left alone).
		client.Epoch = tm.srvEpoch.Load
	}
	cacheDir := ""
	if dir != "" {
		cacheDir = filepath.Join(dir, "cache")
	}
	cache, err := OpenObjectCache(cacheDir)
	if err != nil {
		return nil, nil, err
	}
	tm.cache = cache
	var coordLog *wal.Log
	if dir != "" {
		l, err := wal.Open(filepath.Join(dir, "client-tm.wal"), wal.Options{SyncOnAppend: true})
		if err != nil {
			return nil, nil, err
		}
		tm.log = l
		cl, err := wal.Open(filepath.Join(dir, "client-coord.wal"), wal.Options{SyncOnAppend: true})
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		coordLog = cl
	}
	coord, err := rpc.NewCoordinator(client, coordLog)
	if err != nil {
		return nil, nil, err
	}
	tm.coord = coord
	recovered, err := tm.recover()
	if err != nil {
		return nil, nil, err
	}
	return tm, recovered, nil
}

// Close stops the heartbeat (waiting for the goroutine to exit) and releases
// the client log.
func (tm *ClientTM) Close() error {
	tm.StopHeartbeat()
	if tm.log != nil {
		return tm.log.Close()
	}
	return nil
}

// Coordinator exposes the 2PC coordinator (for in-doubt resolution by a
// restarting server participant).
func (tm *ClientTM) Coordinator() *rpc.Coordinator { return tm.coord }

// Cache exposes the workstation object cache.
func (tm *ClientTM) Cache() *ObjectCache { return tm.cache }

// SetCallbackAddr names the transport address on which this workstation
// serves MethodInvalidate (the cache's Handler); the server-TM registers it
// with every checkout and checkin so invalidations find their way back.
// Empty (the default) leaves callbacks off — the cache still works, it just
// never hears about remote changes before its next revalidation.
func (tm *ClientTM) SetCallbackAddr(addr string) {
	tm.mu.Lock()
	tm.cbAddr = addr
	tm.mu.Unlock()
}

// SetStandbyAddr names the warm-standby server this workstation may fail
// over to ("" disables failover). The heartbeat loop drives the takeover
// automatically when the primary falls silent; Failover runs it on demand.
func (tm *ClientTM) SetStandbyAddr(addr string) {
	tm.mu.Lock()
	tm.standby = addr
	tm.mu.Unlock()
}

// server resolves the server address calls go to right now (it switches from
// the primary to the promoted standby on failover).
func (tm *ClientTM) server() string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.serverAddr
}

// ServerAddr reports the server address this workstation currently talks to.
func (tm *ClientTM) ServerAddr() string { return tm.server() }

// KnownEpoch reports the highest server fencing epoch witnessed so far.
func (tm *ClientTM) KnownEpoch() uint64 { return tm.srvEpoch.Load() }

// noteEpoch raises the witnessed fencing epoch (monotonic).
func (tm *ClientTM) noteEpoch(e uint64) {
	for {
		cur := tm.srvEpoch.Load()
		if e <= cur || tm.srvEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Failover performs the client-driven takeover (DESIGN.md §5.4): promote the
// warm standby (idempotent — concurrent workstations race harmlessly), adopt
// its bumped fencing epoch (every later call stamps it, fencing the deposed
// primary off), switch this client-TM to the new address, re-establish the
// session (Rejoin re-registers every live DOP), and re-deliver any commit
// decisions the old primary never acknowledged so in-doubt checkin branches
// recovered from the replicated participant log resolve. The heartbeat loop
// calls it when the primary stops answering; it is safe to call directly.
func (tm *ClientTM) Failover() error {
	tm.mu.Lock()
	standby, cur := tm.standby, tm.serverAddr
	tm.mu.Unlock()
	if standby == "" || standby == cur {
		return errors.New("txn: failover: no standby configured")
	}
	epoch, err := repl.RequestPromote(tm.client, standby, tm.opBudget())
	if err != nil {
		return fmt.Errorf("txn: failover: promote standby: %w", err)
	}
	tm.noteEpoch(epoch)
	tm.mu.Lock()
	if tm.serverAddr == cur {
		tm.serverAddr = standby
		tm.standby = ""
	}
	addr := tm.serverAddr
	tm.mu.Unlock()
	if err := tm.Rejoin(); err != nil {
		return fmt.Errorf("txn: failover: rejoin at %s: %w", addr, err)
	}
	if err := tm.coord.ResendDecisions(addr); err != nil {
		return fmt.Errorf("txn: failover: resend decisions to %s: %w", addr, err)
	}
	return nil
}

// DefaultOpBudget is the bulk-transfer call budget when OpBudget is unset.
const DefaultOpBudget = 30 * time.Second

// opBudget resolves the bulk-transfer budget.
func (tm *ClientTM) opBudget() time.Duration {
	if tm.OpBudget > 0 {
		return tm.OpBudget
	}
	return DefaultOpBudget
}

// WireStats returns a snapshot of the wire-traffic counters.
func (tm *ClientTM) WireStats() WireStats {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.stats
}

// recover rebuilds DOP contexts from the client log.
func (tm *ClientTM) recover() ([]*DOP, error) {
	if tm.log == nil {
		return nil, nil
	}
	latest := make(map[string]*ctxSnapshot)
	ended := make(map[string]bool)
	err := tm.log.Replay(func(r wal.Record) error {
		switch r.Type {
		case recCtxSnapshot:
			var snap ctxSnapshot
			if err := decode(r.Payload, &snap); err != nil {
				return err
			}
			latest[snap.DOP] = &snap
		case recDOPEnd:
			ended[r.Owner] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(latest))
	for n := range latest {
		if !ended[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []*DOP
	for _, n := range names {
		snap := latest[n]
		d, err := tm.restore(snap)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func (tm *ClientTM) restore(snap *ctxSnapshot) (*DOP, error) {
	d := &DOP{
		tm:       tm,
		id:       snap.DOP,
		da:       snap.DA,
		phase:    snap.Phase,
		inputs:   snap.Inputs,
		saves:    snap.Savepoints,
		checkins: snap.Checkins,
	}
	d.inputData = make(map[version.ID]*catalog.Object, len(snap.InputData))
	for id, data := range snap.InputData {
		obj, err := catalog.DecodeObject(data)
		if err != nil {
			return nil, err
		}
		d.inputData[id] = obj
	}
	if snap.Workspace != nil {
		obj, err := catalog.DecodeObject(snap.Workspace)
		if err != nil {
			return nil, err
		}
		d.workspace = obj
	}
	tm.mu.Lock()
	tm.dops[d.id] = d
	tm.mu.Unlock()
	return d, nil
}

// Begin starts a new DOP for a design activity (Begin-of-DOP). The
// identifier must be unique per workstation; pass "" to auto-generate.
func (tm *ClientTM) Begin(dopID, da string) (*DOP, error) {
	tm.mu.Lock()
	if dopID == "" {
		tm.seq++
		dopID = fmt.Sprintf("%s/dop-%04d", tm.id, tm.seq)
	}
	if _, dup := tm.dops[dopID]; dup {
		tm.mu.Unlock()
		return nil, fmt.Errorf("txn: DOP %s already exists on this workstation", dopID)
	}
	tm.mu.Unlock()

	payload := beginMsg{DOP: dopID, DA: da, WS: tm.id}.encode()
	if _, err := tm.client.Call(tm.server(), MethodBegin, payload); err != nil {
		return nil, err
	}
	d := &DOP{
		tm:        tm,
		id:        dopID,
		da:        da,
		phase:     PhaseActive,
		inputData: make(map[version.ID]*catalog.Object),
	}
	tm.mu.Lock()
	tm.dops[dopID] = d
	tm.mu.Unlock()
	return d, nil
}

// Reattach re-registers a recovered DOP with the server-TM (idempotent at
// the server) so processing can continue after a workstation restart.
func (tm *ClientTM) Reattach(d *DOP) error {
	_, err := tm.client.Call(tm.server(), MethodBegin, beginMsg{DOP: d.id, DA: d.da, WS: tm.id}.encode())
	return err
}

// Crash drops all volatile client-TM state without notifying the server,
// simulating a workstation crash (Sect. 5.2 failure model). The client log
// stays on disk for the next incarnation. The heartbeat goroutine is
// signalled but not waited for (a crash is immediate); with no renewals
// arriving, the server-side lease expires and the reaper reclaims the
// workstation's footprint.
func (tm *ClientTM) Crash() {
	tm.signalHeartbeatStop()
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.dops = make(map[string]*DOP)
	if tm.log != nil {
		tm.log.Close()
	}
}

// snapshotLocked captures the DOP context for the recovery log.
// d.mu must be held.
func (d *DOP) snapshotLocked(tag string) (*ctxSnapshot, error) {
	snap := &ctxSnapshot{
		DOP:        d.id,
		DA:         d.da,
		Phase:      d.phase,
		Inputs:     append([]version.ID(nil), d.inputs...),
		InputData:  make(map[version.ID][]byte, len(d.inputData)),
		Savepoints: append([]namedSnapshot(nil), d.saves...),
		Checkins:   d.checkins,
		Tag:        tag,
	}
	for id, obj := range d.inputData {
		data, err := catalog.EncodeObject(obj)
		if err != nil {
			return nil, err
		}
		snap.InputData[id] = data
	}
	if d.workspace != nil {
		data, err := catalog.EncodeObject(d.workspace)
		if err != nil {
			return nil, err
		}
		snap.Workspace = data
	}
	return snap, nil
}

// recoveryPointLocked persists the context ("recovery points are chosen
// automatically by the system after appropriate events", Sect. 5.2).
func (d *DOP) recoveryPointLocked(tag string) error {
	if d.tm.log == nil {
		return nil
	}
	snap, err := d.snapshotLocked(tag)
	if err != nil {
		return err
	}
	data, err := encode(snap)
	if err != nil {
		return err
	}
	_, err = d.tm.log.Append(recCtxSnapshot, d.id, data)
	return err
}

// Checkout loads a DOV from the repository into the DOP context and returns
// a mutable copy. With derive set, a long derivation lock prevents
// concurrent derivation of the same version. A recovery point is taken
// automatically after the checkout "to avoid duplicate requests of a DOV
// from the server in the case of a failure" (Sect. 5.2).
//
// The transfer itself is cache-negotiated (DESIGN.md §4): when the
// workstation cache holds the version, the server answers NotModified; when
// it holds a relative, the payload travels as a delta. Every reconstruction
// is verified against the server's content hash, and a cache miss mid-race
// (an invalidation dropping the entry between request and response) falls
// back to one cache-blind refetch.
func (d *DOP) Checkout(dov version.ID, derive bool) (*catalog.Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return nil, fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	obj, err := d.fetch(dov, derive, true)
	if err != nil {
		return nil, err
	}
	d.inputs = append(d.inputs, dov)
	d.inputData[dov] = obj
	if err := d.recoveryPointLocked("post-checkout"); err != nil {
		return nil, err
	}
	return obj.Clone(), nil
}

// fetch performs one cache-negotiated checkout transfer. useCache false runs
// the degenerate (always-full) protocol — the retry path after a cache race
// and the behaviour of cacheless clients. d.mu must be held.
func (d *DOP) fetch(dov version.ID, derive, useCache bool) (*catalog.Object, error) {
	tm := d.tm
	m := checkoutMsg{DOP: d.id, DA: d.da, DOV: dov, Derive: derive}
	if useCache && tm.cache != nil {
		tm.mu.Lock()
		m.WS, m.CBAddr = tm.id, tm.cbAddr
		tm.mu.Unlock()
		m.Epoch = tm.cache.Epoch()
		if id, h, ok := tm.cache.BestBase(d.da, dov); ok {
			m.BaseID, m.BaseHash = id, h
		}
	}
	// Encode into a pooled writer: the reliable client frames the payload
	// into its own (pooled) envelope, so the message bytes are dead once
	// Call returns.
	pw := binenc.GetWriter(96)
	m.encodeInto(pw)
	outBytes := uint64(len(pw.Bytes()))
	resp, err := tm.client.CallBudget(tm.server(), MethodCheckout, pw.Bytes(), tm.opBudget())
	pw.Free()
	tm.mu.Lock()
	tm.stats.Checkouts++
	tm.stats.CheckoutBytesOut += outBytes
	tm.stats.CheckoutBytesIn += uint64(len(resp))
	tm.mu.Unlock()
	if err != nil {
		return nil, err
	}
	cr, err := decodeCheckoutResp(resp)
	if err != nil {
		return nil, err
	}
	if cr.BumpEpoch && tm.cache != nil {
		// The server lost invalidations destined for this workstation; the
		// cache incarnation ends before any of its (possibly stale) entries
		// can serve this response. NotModified/delta answers then miss their
		// base and fall back to the cache-blind refetch below.
		tm.cache.BumpEpoch()
	}
	count := func(field *uint64) {
		tm.mu.Lock()
		*field++
		tm.mu.Unlock()
	}
	switch cr.Mode {
	case coFull:
		count(&tm.stats.FullCheckouts)
		obj, err := catalog.DecodeObject(cr.DOV.Object)
		if err != nil {
			return nil, err
		}
		if tm.cache != nil {
			tm.cache.Put(dovMeta{
				ID: cr.DOV.ID, DOT: cr.DOV.DOT, DA: cr.DOV.DA,
				Parents: cr.DOV.Parents, Status: cr.DOV.Status, Fulfilled: cr.DOV.Fulfilled,
			}, cr.Hash, cr.DOV.Object)
		}
		return obj, nil
	case coNotModified:
		count(&tm.stats.NotModified)
		_, hash, enc, ok := tm.cache.Lookup(dov)
		if !ok || !bytes.Equal(hash, cr.Hash) {
			// The entry vanished or changed underneath the in-flight call
			// (concurrent invalidation). Refetch cache-blind; derivation
			// locks are owner-reentrant, so re-running the checkout with
			// the same DOP is safe.
			if useCache {
				return d.fetch(dov, derive, false)
			}
			return nil, fmt.Errorf("txn: checkout %s: NotModified without a cached copy", dov)
		}
		obj, err := catalog.DecodeObject(enc)
		if err != nil {
			return nil, err
		}
		// Refresh the volatile metadata (status, fulfilled features) the
		// server just served under its lock.
		tm.cache.Put(cr.Meta, cr.Hash, enc)
		return obj, nil
	case coDelta:
		count(&tm.stats.DeltaCheckouts)
		_, baseHash, baseEnc, ok := tm.cache.Lookup(cr.BaseID)
		if !ok {
			if useCache {
				return d.fetch(dov, derive, false)
			}
			return nil, fmt.Errorf("txn: checkout %s: delta against evicted base %s", dov, cr.BaseID)
		}
		enc, err := binenc.ApplyDelta(baseEnc, cr.Delta)
		if err == nil && !bytes.Equal(catalog.HashEncoded(enc), cr.Hash) {
			err = fmt.Errorf("txn: checkout %s: delta reconstruction does not match server hash (base %s, hash %x)", dov, cr.BaseID, baseHash[:4])
		}
		if err != nil {
			// Never trust a failed reconstruction; one cache-blind refetch
			// resolves races, otherwise surface the fault.
			if useCache {
				return d.fetch(dov, derive, false)
			}
			return nil, err
		}
		obj, err := catalog.DecodeObject(enc)
		if err != nil {
			return nil, err
		}
		tm.cache.Put(cr.Meta, cr.Hash, enc)
		return obj, nil
	default:
		return nil, fmt.Errorf("txn: checkout %s: unknown response mode %d", dov, cr.Mode)
	}
}

// Input returns a copy of a previously checked-out object (reference
// locality: tools re-read inputs from the DOP context, not the server).
func (d *DOP) Input(dov version.ID) (*catalog.Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	obj, ok := d.inputData[dov]
	if !ok {
		return nil, fmt.Errorf("%w: %s not checked out by %s", version.ErrUnknownDOV, dov, d.id)
	}
	return obj.Clone(), nil
}

// SetWorkspace installs the design tool's current working object.
func (d *DOP) SetWorkspace(obj *catalog.Object) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	d.workspace = obj
	return nil
}

// Workspace returns the current working object (nil if none). The returned
// object is the live workspace: tools mutate it in place.
func (d *DOP) Workspace() *catalog.Object {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workspace
}

// Save marks an intermediate state the designer may wish to return to
// (Sect. 4.3). The savepoint is persisted with the context.
func (d *DOP) Save(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	if name == "" {
		return errors.New("txn: savepoint needs a name")
	}
	var ws []byte
	if d.workspace != nil {
		data, err := catalog.EncodeObject(d.workspace)
		if err != nil {
			return err
		}
		ws = data
	}
	// Replace an existing savepoint of the same name.
	replaced := false
	for i := range d.saves {
		if d.saves[i].Name == name {
			d.saves[i].Workspace = ws
			replaced = true
			break
		}
	}
	if !replaced {
		d.saves = append(d.saves, namedSnapshot{Name: name, Workspace: ws})
	}
	return d.recoveryPointLocked("savepoint:" + name)
}

// Restore performs a user-initiated partial rollback to the named savepoint,
// wiping out everything changed since (Sect. 4.3).
func (d *DOP) Restore(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	for _, sp := range d.saves {
		if sp.Name != name {
			continue
		}
		if sp.Workspace == nil {
			d.workspace = nil
			return nil
		}
		obj, err := catalog.DecodeObject(sp.Workspace)
		if err != nil {
			return err
		}
		d.workspace = obj
		return nil
	}
	return fmt.Errorf("%w: %q in %s", ErrNoSavepoint, name, d.id)
}

// Savepoints returns the savepoint names in creation order.
func (d *DOP) Savepoints() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.saves))
	for i, sp := range d.saves {
		out[i] = sp.Name
	}
	return out
}

// Suspend parks the DOP so it can survive days-long interruptions; the
// context is persisted so the state after Resume equals the state at
// Suspend (Sect. 4.3).
func (d *DOP) Suspend() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	d.phase = PhaseSuspended
	return d.recoveryPointLocked("suspend")
}

// Resume reactivates a suspended DOP.
func (d *DOP) Resume() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseSuspended {
		return fmt.Errorf("txn: Resume: %s is %s, want suspended", d.id, d.phase)
	}
	d.phase = PhaseActive
	return d.recoveryPointLocked("resume")
}

// Checkin propagates the workspace back to the repository as a new DOV
// derived from the checked-out inputs, committed atomically between
// client-TM and server-TM by two-phase commit (Sect. 5.2). root adopts the
// version as a derivation-graph root (initial DOV0 without local parents).
// On success the new version's ID is returned and recorded as LastResult.
func (d *DOP) Checkin(status version.Status, root bool) (version.ID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseActive {
		return "", fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	if d.workspace == nil {
		return "", fmt.Errorf("%w: %s", ErrNothingToCommit, d.id)
	}
	d.checkins++
	newID := version.ID(fmt.Sprintf("%s/v%d", d.id, d.checkins))
	txid := fmt.Sprintf("%s/ci%d", d.id, d.checkins)

	objData, err := catalog.EncodeObject(d.workspace)
	if err != nil {
		return "", err
	}
	hash := catalog.HashEncoded(objData)
	var parents []version.ID
	if !root {
		parents = append([]version.ID(nil), d.inputs...)
	}
	tm := d.tm
	msg := stageMsg{
		DOP:  d.id,
		TxID: txid,
		DOV: dovWire{
			ID: newID, DOT: d.workspace.Type, DA: d.da,
			Parents: parents, Object: objData, Status: status,
		},
		Root: root,
		Hash: hash,
	}
	var dw *binenc.Writer // the delta form of the payload, when one ships
	if tm.cache != nil {
		tm.mu.Lock()
		msg.WS, msg.CBAddr = tm.id, tm.cbAddr
		tm.mu.Unlock()
		msg.Epoch = tm.cache.Epoch()
		// Ship the workspace as a delta against a cached relative — the
		// most recent input is usually the version this one was derived
		// from — whenever that is actually smaller. The server reapplies
		// the delta and verifies the content hash before staging.
		if baseID, baseHash, baseEnc, ok := d.checkinBase(); ok {
			if dw = binenc.DeltaPooled(baseEnc, objData); dw != nil {
				msg.DOV.Object = nil
				msg.BaseID, msg.BaseHash, msg.Delta = baseID, baseHash, dw.Bytes()
			}
		}
	}
	pw := binenc.GetWriter(192 + len(msg.DOV.Object) + len(msg.Delta))
	msg.encodeInto(pw)
	deltaShipped := dw != nil
	if deltaShipped {
		dw.Free() // the script now lives in pw
	}
	tm.mu.Lock()
	tm.stats.Checkins++
	tm.stats.CheckinBytesOut += uint64(len(pw.Bytes()))
	if deltaShipped {
		tm.stats.DeltaCheckins++
	} else {
		tm.stats.FullCheckins++
	}
	tm.mu.Unlock()
	// The stage handler copies anything it retains (rpc.Handler contract),
	// so the pooled message buffer is safe to recycle after the call.
	// Resolve the server once: stage and 2PC must target the same
	// incarnation, and a failover between them is resolved by the
	// coordinator's decision resend, not by splitting this checkin.
	srv := tm.server()
	_, err = tm.client.CallBudget(srv, MethodStage, pw.Bytes(), tm.opBudget())
	pw.Free()
	if err != nil {
		d.checkins--
		return "", fmt.Errorf("txn: stage checkin %s: %w", txid, err)
	}
	outcome, err := tm.coord.Commit(txid, []string{srv})
	if err != nil {
		return "", fmt.Errorf("txn: commit checkin %s: %w", txid, err)
	}
	if outcome != rpc.OutcomeCommitted {
		// "Checkin failure": the server refused (e.g. integrity
		// constraints); the DM or designer decides how to react
		// (Sect. 5.2).
		return "", fmt.Errorf("%w: transaction %s", ErrCheckinFailed, txid)
	}
	if tm.cache != nil {
		// The new version's bytes are already here; cache them so the next
		// checkout of this version is a NotModified handshake.
		tm.cache.Put(dovMeta{
			ID: newID, DOT: d.workspace.Type, DA: d.da,
			Parents: parents, Status: status,
		}, hash, objData)
	}
	d.lastResult = newID
	if err := d.recoveryPointLocked("post-checkin"); err != nil {
		return newID, err
	}
	return newID, nil
}

// checkinBase picks the delta base for a checkin: the most recently checked
// out input still cached (the likeliest derivation parent), falling back to
// the cache's best entry for this DA. d.mu must be held.
func (d *DOP) checkinBase() (version.ID, []byte, []byte, bool) {
	for i := len(d.inputs) - 1; i >= 0; i-- {
		if _, hash, enc, ok := d.tm.cache.Lookup(d.inputs[i]); ok {
			return d.inputs[i], hash, enc, true
		}
	}
	id, _, ok := d.tm.cache.BestBase(d.da, "")
	if !ok {
		return "", nil, nil, false
	}
	_, hash, enc, ok := d.tm.cache.Lookup(id)
	if !ok {
		return "", nil, nil, false
	}
	return id, hash, enc, true
}

// Commit ends the DOP successfully (End-of-DOP): the server releases all
// locks, and the client removes its savepoints and recovery points.
func (d *DOP) Commit() error {
	return d.end(PhaseCommitted)
}

// Abort ends the DOP unsuccessfully, discarding the volatile context. DOVs
// already checked in by earlier Checkin calls remain (they are committed
// transactions of their own 2PC rounds).
func (d *DOP) Abort() error {
	return d.end(PhaseAborted)
}

func (d *DOP) end(final Phase) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase == PhaseCommitted || d.phase == PhaseAborted {
		return fmt.Errorf("%w: %s is %s", ErrDOPNotActive, d.id, d.phase)
	}
	if _, err := d.tm.client.Call(d.tm.server(), MethodAbortDOP, []byte(d.id)); err != nil {
		return err
	}
	d.phase = final
	d.saves = nil
	d.inputData = make(map[version.ID]*catalog.Object)
	d.workspace = nil
	if d.tm.log != nil {
		if _, err := d.tm.log.Append(recDOPEnd, d.id, []byte(final.String())); err != nil {
			return err
		}
	}
	d.tm.mu.Lock()
	delete(d.tm.dops, d.id)
	d.tm.mu.Unlock()
	return nil
}

// HandOver transfers the DOP's in-memory design state to a succeeding DOP
// of the same DA without a round trip through the repository — "in quite a
// number of cases the in-memory data structure can be handed over from one
// DOP to the succeeding DOP" (Sect. 5.1, fn. 1). The receiving DOP obtains
// the workspace, the checked-out inputs and the derivation parents; the
// handing-over DOP keeps its context untouched.
func (d *DOP) HandOver(next *DOP) error {
	if next == nil {
		return errors.New("txn: HandOver needs a successor DOP")
	}
	if d == next {
		return errors.New("txn: cannot hand over to self")
	}
	// Lock ordering by ID avoids deadlock between concurrent handovers.
	first, second := d, next
	if first.id > second.id {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	if d.da != next.da {
		return fmt.Errorf("txn: HandOver across DAs (%s → %s)", d.da, next.da)
	}
	if d.phase != PhaseActive || next.phase != PhaseActive {
		return fmt.Errorf("%w: handover between %s and %s", ErrDOPNotActive, d.phase, next.phase)
	}
	if d.workspace != nil {
		next.workspace = d.workspace.Clone()
	}
	for id, obj := range d.inputData {
		if _, exists := next.inputData[id]; !exists {
			next.inputData[id] = obj.Clone()
			next.inputs = append(next.inputs, id)
		}
	}
	return next.recoveryPointLocked("handover")
}

// ReleaseDerivationLock gives up the derivation lock on an input version
// before DOP end.
func (d *DOP) ReleaseDerivationLock(dov version.ID) error {
	_, err := d.tm.client.Call(d.tm.server(), MethodRelease, releaseMsg{DOP: d.id, DOV: dov}.encode())
	return err
}
