package txn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// Client-side WAL record types (the "workstation disk", client-tm.wal, which
// the 2PC coordinator's 0x21/0x22 share); the payloads are in wire.go. 0x41
// and 0x42 were the gob snapshots these records replaced, and a log that
// still holds them is refused at open.
const (
	// recContext is a DOP's full context, inputs by reference. Forced,
	// except for the one Begin writes.
	recContext wal.RecordType = 0x43
	// recInputAdded is one checkout since the DOP's last context record.
	// Never forced: it rides the next forced record of this log.
	recInputAdded wal.RecordType = 0x44
	// recDOPEnd is End-of-DOP (no payload). Never forced: it rides the next
	// forced record of this log (logEnd says what losing it costs).
	recDOPEnd wal.RecordType = 0x45
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

// DOP is a design operation: a long-lived ACID transaction processing design
// object versions in checkout → process → checkin steps (Sect. 4.3).
type DOP struct {
	tm *ClientTM

	mu     sync.Mutex
	id     string
	da     string
	phase  Phase
	inputs []inputRef
	// inputData holds the checked-out objects. After a restart an input whose
	// bytes the cache no longer holds under the logged hash is absent here
	// until Reattach refetches it.
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
	return d.inputIDsLocked()
}

func (d *DOP) inputIDsLocked() []version.ID {
	ids := make([]version.ID, len(d.inputs))
	for i, in := range d.inputs {
		ids[i] = in.ID
	}
	return ids
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
// deltas, and the payload bytes that actually crossed the LAN.
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
	// log is client-tm.wal (nil on a volatile workstation), which the
	// coordinator's decision records share; the client-TM opens and closes it.
	log   *wal.Log
	cache *ObjectCache
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

	mu   sync.Mutex
	dops map[string]*DOP
	// ctxLSN is, per live DOP, the LSN of its latest context record: replay
	// needs nothing of the DOP below it, so the minimum is the floor the
	// client log may be checkpointed to (logEnd).
	ctxLSN map[string]wal.LSN
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
		ctxLSN:     make(map[string]wal.LSN),
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
	recovered, err := tm.openLog(dir)
	if err != nil {
		tm.closeLog()    //nolint:errcheck // the open error is the one to report
		tm.cache.Close() //nolint:errcheck // likewise
		return nil, nil, err
	}
	return tm, recovered, nil
}

// openLog opens the workstation log under dir ("" = volatile: no log) and
// recovers from it. On error the caller closes whatever was opened.
func (tm *ClientTM) openLog(dir string) ([]*DOP, error) {
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, "client-coord.wal")); err == nil {
			return nil, errSeparateCoordLog
		}
		var err error
		if tm.log, err = wal.Open(filepath.Join(dir, "client-tm.wal"), wal.Options{SyncOnAppend: true}); err != nil {
			return nil, err
		}
	}
	return tm.recover()
}

// closeLog closes the workstation log, flushing any unforced record.
func (tm *ClientTM) closeLog() error {
	if tm.log == nil {
		return nil
	}
	return tm.log.Close()
}

// Close stops the heartbeat (waiting for the goroutine to exit) and releases
// the workstation log and the cache's entry log.
func (tm *ClientTM) Close() error {
	tm.StopHeartbeat()
	return errors.Join(tm.closeLog(), tm.cache.Close())
}

// Coordinator exposes the 2PC coordinator (for in-doubt resolution by a
// restarting server participant).
func (tm *ClientTM) Coordinator() *rpc.Coordinator { return tm.coord }

// InDoubtOutcome answers a restarting server participant's in-doubt question
// (rpc.Participant.Resolve) from the workstation coordinators: committed if
// any of them holds the commit decision, aborted by presumption otherwise.
func InDoubtOutcome(tms []*ClientTM) func(txid string) rpc.Outcome {
	return func(txid string) rpc.Outcome {
		for _, tm := range tms {
			if tm.coord.Outcome(txid) == rpc.OutcomeCommitted {
				return rpc.OutcomeCommitted
			}
		}
		return rpc.OutcomeAborted
	}
}

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
// recovered from the replicated staged records resolve. The heartbeat loop
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
	// The decisions go out even if a DOP could not rejoin whole: the address
	// has switched, so no later Failover would resend them.
	rejoinErr := tm.Rejoin()
	if err := tm.coord.ResendDecisions(addr); err != nil {
		return fmt.Errorf("txn: failover: resend decisions to %s: %w", addr, err)
	}
	if rejoinErr != nil {
		return fmt.Errorf("txn: failover: rejoin at %s: %w", addr, rejoinErr)
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

// recover builds the coordinator and the DOP contexts in one replay of the
// client log: per DOP the latest context record plus the inputs added after
// it, unless an end record follows.
func (tm *ClientTM) recover() ([]*DOP, error) {
	type logged struct {
		ctx ctxRecord
		lsn wal.LSN
	}
	live := make(map[string]*logged)
	coord, err := rpc.OpenCoordinator(tm.client, tm.log, func(r wal.Record) error {
		var err error
		switch r.Type {
		case recContext:
			var ctx ctxRecord
			if ctx, err = decodeContext(r.Payload); err == nil {
				live[r.Owner] = &logged{ctx: ctx, lsn: r.LSN}
			}
		case recInputAdded:
			var in inputRef
			in, err = decodeInputAdded(r.Payload)
			// Every DOP logs a context record before its first checkout, and
			// the log is only ever cut at a live DOP's context record: an
			// input without one belongs to a DOP whose end record follows.
			if l := live[r.Owner]; l != nil && err == nil {
				l.ctx.Inputs = append(l.ctx.Inputs, in)
			}
		case recDOPEnd:
			delete(live, r.Owner)
		default:
			// Among them the gob snapshot format (0x41, 0x42) of older builds,
			// which is not migrated.
			return fmt.Errorf("%w: record type 0x%02x", errForeignClientLog, uint16(r.Type))
		}
		if err != nil {
			return fmt.Errorf("txn: client log record at LSN %d: %w", r.LSN, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tm.coord = coord
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*DOP, 0, len(names))
	for _, n := range names {
		d, err := tm.restore(n, live[n].ctx)
		if err != nil {
			return nil, err
		}
		tm.dops[n] = d
		tm.ctxLSN[n] = live[n].lsn
		out = append(out, d)
	}
	return out, nil
}

// errForeignClientLog refuses a client-tm.wal holding records this build does
// not write, errSeparateCoordLog a directory that still holds the separate
// coordinator log of older builds. Either must be ended by the build that
// wrote it (or removed): recovery never guesses at another format.
var (
	errForeignClientLog = errors.New("txn: client-tm.wal was not written by this format of the client-TM (end its DOPs with the build that wrote it, or remove it)")
	errSeparateCoordLog = errors.New("txn: client-coord.wal is the coordinator log of an older build (resolve its checkins with the build that wrote it, or remove it)")
)

// restore rebuilds a DOP from its logged context. Inputs are resolved from
// the workstation cache, each under the hash the log recorded; one the cache
// no longer holds (evicted, torn, flushed by an epoch bump) stays without
// data until Reattach refetches it.
func (tm *ClientTM) restore(id string, ctx ctxRecord) (*DOP, error) {
	d := &DOP{
		tm:        tm,
		id:        id,
		da:        ctx.DA,
		phase:     ctx.Phase,
		inputs:    ctx.Inputs,
		inputData: make(map[version.ID]*catalog.Object, len(ctx.Inputs)),
		saves:     ctx.Savepoints,
		checkins:  ctx.Checkins,
	}
	for _, in := range ctx.Inputs {
		_, hash, enc, ok := tm.cache.Lookup(in.ID)
		if !ok || !bytes.Equal(hash, in.Hash) {
			continue
		}
		if obj, err := catalog.DecodeObject(enc); err == nil {
			d.inputData[in.ID] = obj
		}
	}
	if ctx.Workspace != nil {
		obj, err := catalog.DecodeObject(ctx.Workspace)
		if err != nil {
			return nil, fmt.Errorf("txn: restore %s: workspace: %w", id, err)
		}
		d.workspace = obj
	}
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
	// The DOP's first context record, unforced: it gives the input-added
	// records of the checkouts to come a base to extend, and the DOP a floor
	// in the log. Lost in a crash, the DOP was never begun on this side.
	if tm.log != nil {
		if _, err := d.logContextLocked(); err != nil {
			return nil, err
		}
	}
	tm.mu.Lock()
	tm.dops[dopID] = d
	tm.mu.Unlock()
	return d, nil
}

// Reattach re-registers a recovered DOP with the server-TM (idempotent at
// the server) so processing can continue after a workstation restart, and
// takes its server footprint again (reacquire). A DOP the server forgot —
// its end record was lost after the server ended it, or its lease was reaped
// — comes back with its derivation locks, or not at all.
func (tm *ClientTM) Reattach(d *DOP) error {
	if _, err := tm.client.Call(tm.server(), MethodBegin, beginMsg{DOP: d.id, DA: d.da, WS: tm.id}.encode()); err != nil {
		return err
	}
	return d.reacquire()
}

// reacquire takes a registered DOP's server footprint again: the derivation
// lock of every derive input, owner-reentrant, so a lock the server still
// holds costs one NotModified handshake; and every input the restore could
// not resolve from the cache, one cache-blind checkout with the original's
// flags. Each is accepted only under the content hash the log recorded. If
// any fails — another DOP derives from the version now — the DOP is ended at
// the server: it holds nothing there and cannot stage a checkin until a
// later Reattach succeeds.
func (d *DOP) reacquire() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase == PhaseCommitted || d.phase == PhaseAborted {
		// It ended while a Rejoin was registering it again: end it there too.
		_, err := d.tm.client.Call(d.tm.server(), MethodAbortDOP, []byte(d.id))
		return err
	}
	for _, in := range d.inputs {
		_, held := d.inputData[in.ID]
		if held && !in.Derive {
			continue
		}
		obj, hash, err := d.fetch(in.ID, in.Derive, held)
		if err == nil && !bytes.Equal(hash, in.Hash) {
			err = fmt.Errorf("now hashes %x, the log recorded %x", hash, in.Hash)
		}
		if err != nil {
			d.tm.client.Call(d.tm.server(), MethodAbortDOP, []byte(d.id)) //nolint:errcheck // best effort: the error below is the news
			return fmt.Errorf("txn: reattach %s: input %s: %w", d.id, in.ID, err)
		}
		d.inputData[in.ID] = obj
	}
	return nil
}

// Crash drops all volatile client-TM state without notifying the server,
// simulating a workstation crash (Sect. 5.2 failure model). The logs stay on
// disk for the next incarnation. The heartbeat goroutine is
// signalled but not waited for (a crash is immediate); with no renewals
// arriving, the server-side lease expires and the reaper reclaims the
// workstation's footprint.
func (tm *ClientTM) Crash() {
	tm.signalHeartbeatStop()
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tm.dops = make(map[string]*DOP)
	tm.ctxLSN = make(map[string]wal.LSN)
	tm.closeLog()    //nolint:errcheck // a crash reports nothing
	tm.cache.Close() //nolint:errcheck // likewise
}

// logRecord reserves one record in the client log and returns its LSN and
// the wait for its force (which a record that may ride the next force never
// calls). The reservation runs under tm.mu, so the log's size read just
// before it is the record's LSN, and a context record is entered as its DOP's
// floor before any logEnd can compute a floor above it.
func (tm *ClientTM) logRecord(t wal.RecordType, dop string, payload []byte) (wal.LSN, func() (wal.LSN, error), error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	lsn := wal.LSN(tm.log.Size())
	wait, err := tm.log.AppendAsync(t, dop, payload)
	if err != nil {
		return 0, nil, err
	}
	switch t {
	case recContext:
		tm.ctxLSN[dop] = lsn
	case recDOPEnd:
		delete(tm.ctxLSN, dop)
	}
	return lsn, wait, nil
}

// logEnd reserves the DOP's end record and then bounds the log and its
// replay: everything below the oldest context record of a DOP still live
// (below the end record itself when none is) is dead, and once that is a
// segment's worth beyond the low-water mark the log is checkpointed there —
// at most one marker install per segment written, and none while a parked
// DOP pins the floor. A decision being logged lies above its Checkin's
// context record, and the coordinator re-logs pending ones above the floor.
// The trim is best effort: an untrimmed log is merely longer.
//
// The end record is not waited for. It rides the log's next force: the next
// checkin's decision, a recovery point, or the cut itself, which forces what
// is reserved before it moves the mark. Lost in a crash, it brings the DOP
// back at its last context record, holding nothing at the server (the DOP
// ended there first), and ending it again costs one tm/abort-dop.
func (tm *ClientTM) logEnd(dop string) error {
	floor, _, err := tm.logRecord(recDOPEnd, dop, nil)
	if err != nil || tm.log.SegmentCount() < 2 {
		return err
	}
	tm.mu.Lock()
	for _, lsn := range tm.ctxLSN {
		floor = min(floor, lsn)
	}
	tm.mu.Unlock()
	if floor >= tm.log.LowWater()+wal.DefaultSegmentBytes {
		tm.coord.Checkpoint(floor) //nolint:errcheck // best effort, see above
	}
	return nil
}

// logContextLocked reserves the DOP's full context record in the client log:
// inputs by reference, workspace and savepoints embedded (wire.go). d.mu must
// be held, unless d is not shared yet.
func (d *DOP) logContextLocked() (func() (wal.LSN, error), error) {
	ctx := ctxRecord{
		DA: d.da, Phase: d.phase, Checkins: d.checkins,
		Inputs: d.inputs, Savepoints: d.saves,
	}
	if d.workspace != nil {
		ws, err := catalog.EncodeObject(d.workspace)
		if err != nil {
			return nil, err
		}
		ctx.Workspace = ws
	}
	pw := binenc.GetWriter(256 + len(ctx.Workspace))
	defer pw.Free() // the log framed its own copy
	ctx.encodeInto(pw)
	_, wait, err := d.tm.logRecord(recContext, d.id, pw.Bytes())
	return wait, err
}

// recoveryPointLocked forces the context to the client log ("recovery points
// are chosen automatically by the system after appropriate events",
// Sect. 5.2). d.mu must be held.
func (d *DOP) recoveryPointLocked() error {
	if d.tm.log == nil {
		return nil
	}
	wait, err := d.logContextLocked()
	if err != nil {
		return err
	}
	_, err = wait()
	return err
}

// Checkout loads a DOV from the repository into the DOP context and returns
// a mutable copy. With derive set, a long derivation lock prevents
// concurrent derivation of the same version. The paper takes a recovery
// point after the checkout "to avoid duplicate requests of a DOV from the
// server in the case of a failure" (Sect. 5.2); here the checkout logs the
// input by reference — ID and content hash, the bytes are in the persistent
// cache — and does not wait for the force: the record rides the next forced
// record of the log, and a crash before that rolls the DOP back by this one
// checkout, whose repetition is a NotModified handshake.
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
	obj, hash, err := d.fetch(dov, derive, true)
	if err != nil {
		return nil, err
	}
	in := inputRef{ID: dov, Hash: hash, Derive: derive}
	if d.tm.log != nil {
		pw := binenc.GetWriter(64)
		in.encodeInto(pw)
		_, _, err := d.tm.logRecord(recInputAdded, d.id, pw.Bytes())
		pw.Free()
		if err != nil {
			// The context is untouched: the DOP does not hold the version.
			return nil, fmt.Errorf("txn: checkout %s: log input: %w", dov, err)
		}
	}
	d.inputs = append(d.inputs, in)
	d.inputData[dov] = obj
	return obj.Clone(), nil
}

// fetch performs one cache-negotiated checkout transfer. useCache false runs
// the degenerate (always-full) protocol — the retry path after a cache race.
// Beside the object it returns the content hash the server stated for it.
// d.mu must be held.
func (d *DOP) fetch(dov version.ID, derive, useCache bool) (*catalog.Object, []byte, error) {
	tm := d.tm
	m := checkoutMsg{DOP: d.id, DA: d.da, DOV: dov, Derive: derive}
	if useCache {
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
		return nil, nil, err
	}
	cr, err := decodeCheckoutResp(resp)
	if err != nil {
		return nil, nil, err
	}
	if cr.BumpEpoch {
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
			return nil, nil, err
		}
		tm.cache.Put(dovMeta{
			ID: cr.DOV.ID, DOT: cr.DOV.DOT, DA: cr.DOV.DA,
			Parents: cr.DOV.Parents, Status: cr.DOV.Status, Fulfilled: cr.DOV.Fulfilled,
		}, cr.Hash, cr.DOV.Object)
		return obj, cr.Hash, nil
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
			return nil, nil, fmt.Errorf("txn: checkout %s: NotModified without a cached copy", dov)
		}
		obj, err := catalog.DecodeObject(enc)
		if err != nil {
			return nil, nil, err
		}
		// Refresh the volatile metadata (status, fulfilled features) the
		// server just served under its lock.
		tm.cache.Put(cr.Meta, cr.Hash, enc)
		return obj, cr.Hash, nil
	case coDelta:
		count(&tm.stats.DeltaCheckouts)
		_, baseHash, baseEnc, ok := tm.cache.Lookup(cr.BaseID)
		if !ok {
			if useCache {
				return d.fetch(dov, derive, false)
			}
			return nil, nil, fmt.Errorf("txn: checkout %s: delta against evicted base %s", dov, cr.BaseID)
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
			return nil, nil, err
		}
		obj, err := catalog.DecodeObject(enc)
		if err != nil {
			return nil, nil, err
		}
		tm.cache.Put(cr.Meta, cr.Hash, enc)
		return obj, cr.Hash, nil
	default:
		return nil, nil, fmt.Errorf("txn: checkout %s: unknown response mode %d", dov, cr.Mode)
	}
}

// Input returns a copy of a previously checked-out object (reference
// locality: tools re-read inputs from the DOP context, not the server).
func (d *DOP) Input(dov version.ID) (*catalog.Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	obj, ok := d.inputData[dov]
	if !ok {
		if slices.ContainsFunc(d.inputs, func(in inputRef) bool { return in.ID == dov }) {
			return nil, fmt.Errorf("txn: input %s of recovered DOP %s is no longer cached on this workstation; Reattach refetches it", dov, d.id)
		}
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
	return d.recoveryPointLocked()
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
	return d.recoveryPointLocked()
}

// Resume reactivates a suspended DOP.
func (d *DOP) Resume() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.phase != PhaseSuspended {
		return fmt.Errorf("txn: Resume: %s is %s, want suspended", d.id, d.phase)
	}
	d.phase = PhaseActive
	return d.recoveryPointLocked()
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
		parents = d.inputIDsLocked()
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
	tm.mu.Lock()
	msg.WS, msg.CBAddr = tm.id, tm.cbAddr
	tm.mu.Unlock()
	msg.Epoch = tm.cache.Epoch()
	// Ship the workspace as a delta against a cached relative — the most
	// recent input is usually the version this one was derived from —
	// whenever that is actually smaller. The server reapplies the delta and
	// verifies the content hash before staging.
	if baseID, baseHash, baseEnc, ok := d.checkinBase(); ok {
		if dw = binenc.DeltaPooled(baseEnc, objData); dw != nil {
			msg.DOV.Object = nil
			msg.BaseID, msg.BaseHash, msg.Delta = baseID, baseHash, dw.Bytes()
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
	// The new version's bytes are already here; cache them so the next
	// checkout of this version is a NotModified handshake.
	tm.cache.Put(dovMeta{
		ID: newID, DOT: d.workspace.Type, DA: d.da,
		Parents: parents, Status: status,
	}, hash, objData)
	d.lastResult = newID
	// The post-checkin recovery point; it also carries to disk the
	// input-added records of the checkouts before it.
	return newID, d.recoveryPointLocked()
}

// checkinBase picks the delta base for a checkin: the most recently checked
// out input still cached (the likeliest derivation parent), falling back to
// the cache's best entry for this DA. d.mu must be held.
func (d *DOP) checkinBase() (version.ID, []byte, []byte, bool) {
	for i := len(d.inputs) - 1; i >= 0; i-- {
		if _, hash, enc, ok := d.tm.cache.Lookup(d.inputs[i].ID); ok {
			return d.inputs[i].ID, hash, enc, true
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
		if err := d.tm.logEnd(d.id); err != nil {
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
	for _, in := range d.inputs {
		if _, ok := d.inputData[in.ID]; !ok {
			return fmt.Errorf("txn: HandOver: input %s of recovered DOP %s awaits its refetch (Reattach first)", in.ID, d.id)
		}
	}
	if d.workspace != nil {
		next.workspace = d.workspace.Clone()
	}
	for _, in := range d.inputs {
		if _, exists := next.inputData[in.ID]; !exists {
			next.inputData[in.ID] = d.inputData[in.ID].Clone()
			next.inputs = append(next.inputs, in)
		}
	}
	return next.recoveryPointLocked()
}

// ReleaseDerivationLock gives up the derivation lock on an input version
// before DOP end.
func (d *DOP) ReleaseDerivationLock(dov version.ID) error {
	_, err := d.tm.client.Call(d.tm.server(), MethodRelease, releaseMsg{DOP: d.id, DOV: dov}.encode())
	return err
}
