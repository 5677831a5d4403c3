// Package txn implements CONCORD's Tool Execution (TE) level: design
// operations (DOPs) as long-lived ACID transactions managed by a split
// transaction manager (Sects. 4.3, 5.2). In CONCORD's layer terms it is the
// transactional access path of design object management (DOM) — the level
// that moves design object versions between the server repository and the
// workstations, below the design flow management (DFM) and cooperation
// layers.
//
// The server-TM resides with the design data repository: it handles
// checkout/checkin, short locks protecting the derivation graphs, long
// derivation locks, and the durable installation of new DOVs. The client-TM
// resides on the workstation: it manages the internal structure of DOPs —
// savepoints (Save/Restore), Suspend/Resume, and automatic recovery points
// that bound the work lost in a workstation crash. All critical
// client-TM/server-TM interactions (Begin-of-DOP, checkout, checkin,
// End-of-DOP) run over transactional RPC, with checkin committed by a
// two-phase commit between the two TM halves.
//
// Checkout/checkin traffic is volume-optimized by a workstation object cache
// (ObjectCache, DESIGN.md §4): re-checkouts of cached versions transfer a
// NotModified acknowledgement, related versions travel as binenc deltas
// against a cached base, and checkins ship deltas the server applies and
// verifies by content hash before anything is staged. The server pushes
// callback invalidations to registered caches when versions change; the
// cooperative read path itself stays server-mediated (every checkout
// revalidates at the server under CM rules), so callbacks steer freshness
// without ever carrying correctness.
package txn

import (
	"fmt"
	"slices"

	"concord/internal/binenc"
	"concord/internal/version"
)

// RPC method names served by the server-TM, plus the cache-invalidation
// callback method served by every workstation (DESIGN.md §4).
const (
	MethodBegin    = "tm/begin"
	MethodCheckout = "tm/checkout"
	MethodStage    = "tm/stage"
	MethodAbortDOP = "tm/abort-dop"
	MethodRelease  = "tm/release-lock"
	// MethodInvalidate is pushed server→workstation when a version another
	// DA can see changes (checkin supersession, status promotion or
	// invalidation); the workstation's ObjectCache serves it.
	MethodInvalidate = "cache/invalidate"
)

// beginMsg registers a DOP with the server-TM. WS (wire rev 3) names the
// workstation whose lease the DOP is opened under ("" = no session tracking,
// the pre-lease behaviour).
type beginMsg struct {
	DOP string
	DA  string
	WS  string
}

// checkoutMsg requests a DOV for processing. Beyond identifying the version,
// it negotiates the workstation cache (wire rev 2): the client names a base
// version it holds (proved by content hash) so the server can answer
// NotModified or ship a delta, and identifies its cache incarnation so the
// server can register it for callback invalidations.
type checkoutMsg struct {
	DOP string
	DA  string
	DOV version.ID
	// Derive acquires a long derivation lock preventing concurrent
	// checkout-for-derivation of the same version.
	Derive bool
	// WS identifies the workstation cache for callback registration
	// ("" disables caching for this checkout).
	WS string
	// CBAddr is the transport address serving MethodInvalidate on the
	// workstation ("" = no callbacks wanted).
	CBAddr string
	// Epoch is the workstation cache incarnation (bumped on every restart);
	// the server replaces registrations of older epochs.
	Epoch uint64
	// BaseID names a version whose canonical payload encoding the client
	// holds in its cache ("" = none; cold cache or no plausible base).
	BaseID version.ID
	// BaseHash is the content hash of that cached encoding; the server
	// only uses the base if the hash matches its own, so a divergent or
	// corrupt client cache degrades to a full transfer, never to wrong data.
	BaseHash []byte
}

// Checkout response modes (wire rev 2).
const (
	// coFull carries the complete DOV (cold cache, or delta not worthwhile).
	coFull byte = 1
	// coNotModified says the client's cached payload for the requested
	// version is current; only refreshed metadata travels.
	coNotModified byte = 2
	// coDelta carries a binenc delta from the offered base to the target.
	coDelta byte = 3
)

// checkoutResp is the server's answer to a checkout.
type checkoutResp struct {
	Mode byte
	// DOV is set in coFull mode.
	DOV dovWire
	// Meta carries the payload-free version record in coNotModified and
	// coDelta modes (the client re-attaches the payload from its cache or
	// the delta).
	Meta dovMeta
	// Hash is the content hash of the target's canonical payload encoding
	// (all modes; the client verifies reconstruction against it).
	Hash []byte
	// BaseID echoes the delta base (coDelta only).
	BaseID version.ID
	// Delta is the binenc edit script base→target (coDelta only).
	Delta []byte
	// BumpEpoch (wire rev 4) orders the workstation to retire its cache
	// incarnation: the server's notifier dropped invalidations destined for
	// this workstation's callback endpoint, so cached metadata may be stale.
	BumpEpoch bool
}

// dovMeta is a version record without its payload.
type dovMeta struct {
	ID        version.ID
	DOT       string
	DA        string
	Parents   []version.ID
	Status    version.Status
	Fulfilled []string
}

// stageMsg transfers a derived DOV to the server ahead of the checkin 2PC.
// Wire rev 2 adds delta shipping: when BaseID is set, DOV.Object is empty and
// the payload travels as Delta against the named base; Hash always carries
// the content hash of the full canonical encoding, which the server verifies
// before anything is staged or logged.
type stageMsg struct {
	DOP  string
	TxID string
	// DOV carries the version record; Object is nil in delta form.
	DOV dovWire
	// Root adopts the version as a graph root (initial DOV0).
	Root bool
	// Hash is the content hash of the full payload encoding ("" pre-rev-2
	// semantics: no verification — kept decodable for staged records).
	Hash []byte
	// BaseID / BaseHash / Delta are the delta form (BaseID == "" = full).
	BaseID   version.ID
	BaseHash []byte
	Delta    []byte
	// WS / CBAddr / Epoch register the committing workstation's cache for
	// the new version (it retains the bytes it just shipped).
	WS     string
	CBAddr string
	Epoch  uint64
}

// Cache-invalidation kinds (server→workstation callbacks).
const (
	// invStatus: the version's lifecycle status changed; the cached record
	// must be refreshed (or dropped when the status is invalid).
	invStatus byte = 1
	// invSuperseded: a new version was checked in over this one; the entry
	// stays useful as a delta base but is no longer the tip of its line.
	invSuperseded byte = 2
)

// invalidation is one entry of an invalidateMsg.
type invalidation struct {
	DOV  version.ID
	Kind byte
	// Status is the new lifecycle status (invStatus).
	Status version.Status
	// By is the superseding version (invSuperseded).
	By version.ID
}

// invalidateMsg is the callback payload pushed to a workstation cache.
type invalidateMsg struct {
	// Epoch is the cache incarnation the registration was made under; a
	// restarted cache ignores callbacks addressed to its predecessor.
	Epoch   uint64
	Entries []invalidation
}

// dovWire is the wire representation of a version.
type dovWire struct {
	ID        version.ID
	DOT       string
	DA        string
	Parents   []version.ID
	Object    []byte
	Status    version.Status
	Fulfilled []string
}

// releaseMsg drops a derivation lock early (e.g. on DOP abort path).
type releaseMsg struct {
	DOP string
	DOV version.ID
}

// The wire messages and the client-TM's recovery records (below) share the
// hand-rolled binenc format: both are produced on every DOP operation, where a
// reflective codec's per-message engine compilation dominated the profile.

func (m beginMsg) encode() []byte {
	w := binenc.NewWriter(48)
	w.Str(m.DOP)
	w.Str(m.DA)
	w.Str(m.WS)
	return w.Bytes()
}

// encodeInto variants write into caller-supplied (usually pooled) writers:
// the client-TM encodes checkout and stage messages on every DOP operation,
// and with the writer pool those encodes stop allocating. Server→client
// responses stay on encode() — the rpc deduplication layer retains response
// buffers, so they must own fresh memory.

func decodeBegin(data []byte) (beginMsg, error) {
	r := binenc.NewReader(data)
	m := beginMsg{DOP: r.Str(), DA: r.Str(), WS: r.Str()}
	return m, wireErr(r)
}

func (m checkoutMsg) encodeInto(w *binenc.Writer) {
	w.Str(m.DOP)
	w.Str(m.DA)
	w.Str(string(m.DOV))
	w.Bool(m.Derive)
	w.Str(m.WS)
	w.Str(m.CBAddr)
	w.U64(m.Epoch)
	w.Str(string(m.BaseID))
	w.Blob(m.BaseHash)
}

func (m checkoutMsg) encode() []byte {
	w := binenc.NewWriter(96)
	m.encodeInto(w)
	return w.Bytes()
}

func decodeCheckout(data []byte) (checkoutMsg, error) {
	r := binenc.NewReader(data)
	m := checkoutMsg{DOP: r.Str(), DA: r.Str(), DOV: version.ID(r.Str()), Derive: r.Bool()}
	m.WS = r.Str()
	m.CBAddr = r.Str()
	m.Epoch = r.U64()
	m.BaseID = version.ID(r.Str())
	m.BaseHash = r.Blob()
	return m, wireErr(r)
}

// equal reports whether two records carry the same metadata.
func (m dovMeta) equal(o dovMeta) bool {
	return m.ID == o.ID && m.DOT == o.DOT && m.DA == o.DA && m.Status == o.Status &&
		slices.Equal(m.Parents, o.Parents) && slices.Equal(m.Fulfilled, o.Fulfilled)
}

func (m dovMeta) encodeInto(w *binenc.Writer) {
	w.Str(string(m.ID))
	w.Str(m.DOT)
	w.Str(m.DA)
	w.U64(uint64(len(m.Parents)))
	for _, p := range m.Parents {
		w.Str(string(p))
	}
	w.Byte(byte(m.Status))
	w.Strs(m.Fulfilled)
}

func decodeDOVMeta(r *binenc.Reader) dovMeta {
	m := dovMeta{ID: version.ID(r.Str()), DOT: r.Str(), DA: r.Str()}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		m.Parents = append(m.Parents, version.ID(r.Str()))
	}
	m.Status = version.Status(r.Byte())
	m.Fulfilled = r.Strs()
	return m
}

func (m checkoutResp) encode() []byte {
	w := binenc.NewWriter(128 + len(m.DOV.Object) + len(m.Delta))
	w.Byte(m.Mode)
	switch m.Mode {
	case coFull:
		m.DOV.encodeInto(w)
		w.Blob(m.Hash)
	case coNotModified:
		m.Meta.encodeInto(w)
		w.Blob(m.Hash)
	case coDelta:
		m.Meta.encodeInto(w)
		w.Blob(m.Hash)
		w.Str(string(m.BaseID))
		w.Blob(m.Delta)
	}
	w.Bool(m.BumpEpoch)
	return w.Bytes()
}

func decodeCheckoutResp(data []byte) (checkoutResp, error) {
	r := binenc.NewReader(data)
	m := checkoutResp{Mode: r.Byte()}
	switch m.Mode {
	case coFull:
		m.DOV = decodeDOVWire(r)
		m.Hash = r.Blob()
	case coNotModified:
		m.Meta = decodeDOVMeta(r)
		m.Hash = r.Blob()
	case coDelta:
		m.Meta = decodeDOVMeta(r)
		m.Hash = r.Blob()
		m.BaseID = version.ID(r.Str())
		m.Delta = r.Blob()
	default:
		if r.Err() == nil {
			return m, fmt.Errorf("txn: decode checkout response: unknown mode 0x%02x", m.Mode)
		}
		return m, wireErr(r)
	}
	m.BumpEpoch = r.Bool()
	return m, wireErr(r)
}

func (m invalidateMsg) encode() []byte {
	w := binenc.NewWriter(32 + 48*len(m.Entries))
	w.U64(m.Epoch)
	w.U64(uint64(len(m.Entries)))
	for _, e := range m.Entries {
		w.Str(string(e.DOV))
		w.Byte(e.Kind)
		w.Byte(byte(e.Status))
		w.Str(string(e.By))
	}
	return w.Bytes()
}

func decodeInvalidate(data []byte) (invalidateMsg, error) {
	r := binenc.NewReader(data)
	m := invalidateMsg{Epoch: r.U64()}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		m.Entries = append(m.Entries, invalidation{
			DOV: version.ID(r.Str()), Kind: r.Byte(),
			Status: version.Status(r.Byte()), By: version.ID(r.Str()),
		})
	}
	return m, wireErr(r)
}

func (m releaseMsg) encode() []byte {
	w := binenc.NewWriter(32)
	w.Str(m.DOP)
	w.Str(string(m.DOV))
	return w.Bytes()
}

func decodeRelease(data []byte) (releaseMsg, error) {
	r := binenc.NewReader(data)
	m := releaseMsg{DOP: r.Str(), DOV: version.ID(r.Str())}
	return m, wireErr(r)
}

func (v dovWire) encodeInto(w *binenc.Writer) {
	w.Str(string(v.ID))
	w.Str(v.DOT)
	w.Str(v.DA)
	w.U64(uint64(len(v.Parents)))
	for _, p := range v.Parents {
		w.Str(string(p))
	}
	w.Blob(v.Object)
	w.Byte(byte(v.Status))
	w.Strs(v.Fulfilled)
}

func decodeDOVWire(r *binenc.Reader) dovWire {
	v := dovWire{ID: version.ID(r.Str()), DOT: r.Str(), DA: r.Str()}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		v.Parents = append(v.Parents, version.ID(r.Str()))
	}
	v.Object = r.Blob()
	v.Status = version.Status(r.Byte())
	v.Fulfilled = r.Strs()
	return v
}

func (m stageMsg) encodeInto(w *binenc.Writer) {
	w.Str(m.DOP)
	w.Str(m.TxID)
	m.DOV.encodeInto(w)
	w.Bool(m.Root)
	w.Blob(m.Hash)
	w.Str(string(m.BaseID))
	w.Blob(m.BaseHash)
	w.Blob(m.Delta)
	w.Str(m.WS)
	w.Str(m.CBAddr)
	w.U64(m.Epoch)
}

func (m stageMsg) encode() []byte {
	w := binenc.NewWriter(192 + len(m.DOV.Object) + len(m.Delta))
	m.encodeInto(w)
	return w.Bytes()
}

func decodeStage(data []byte) (stageMsg, error) {
	r := binenc.NewReader(data)
	m := stageMsg{DOP: r.Str(), TxID: r.Str()}
	m.DOV = decodeDOVWire(r)
	m.Root = r.Bool()
	m.Hash = r.Blob()
	m.BaseID = version.ID(r.Str())
	m.BaseHash = r.Blob()
	m.Delta = r.Blob()
	m.WS = r.Str()
	m.CBAddr = r.Str()
	m.Epoch = r.U64()
	return m, wireErr(r)
}

func wireErr(r *binenc.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("txn: decode: %w", err)
	}
	return nil
}

// Client recovery records (client-tm.wal; DESIGN.md §4.4). The wal record's
// owner names the DOP. The log references design data instead of copying it:
// an input is the triple below, and its bytes stay where they already are —
// hash-verified in the workstation's ObjectCache, and re-fetchable from the
// server by ID because a DOV is immutable. Only what exists nowhere else, the
// tool's workspace and its savepoints, is embedded.

// inputRef names one checked-out input of a DOP.
type inputRef struct {
	ID version.ID
	// Hash is the content hash of the input's canonical encoding, as the
	// server stated it at checkout; restore accepts a cached copy only under
	// this hash.
	Hash []byte
	// Derive repeats the checkout's derive flag, so that a refetch is the same
	// call as the original: a re-entrant acquire of the derivation lock the
	// DOP holds — or re-acquires, if the server no longer has it — or the
	// short read lock of a plain checkout.
	Derive bool
}

// ctxRecord is the durable DOP context: "the current state of the design
// data and information about the state of the application program
// implementing the DOP" (Sect. 5.2, fn. 1).
type ctxRecord struct {
	DA       string
	Phase    Phase
	Checkins int
	Inputs   []inputRef
	// Workspace is the encoded working object (nil = none).
	Workspace  []byte
	Savepoints []namedSnapshot
}

// namedSnapshot is one user savepoint: the encoded workspace at Save time
// (nil = the DOP had none).
type namedSnapshot struct {
	Name      string
	Workspace []byte
}

func (in inputRef) encodeInto(w *binenc.Writer) {
	w.Str(string(in.ID))
	w.Blob(in.Hash)
	w.Bool(in.Derive)
}

func decodeInputRef(r *binenc.Reader) inputRef {
	return inputRef{ID: version.ID(r.Str()), Hash: r.Blob(), Derive: r.Bool()}
}

// decodeInputAdded decodes a recInputAdded payload (one inputRef).
func decodeInputAdded(data []byte) (inputRef, error) {
	r := binenc.NewReader(data)
	in := decodeInputRef(r)
	return in, recordErr(r)
}

func (c ctxRecord) encodeInto(w *binenc.Writer) {
	w.Str(c.DA)
	w.Byte(byte(c.Phase))
	w.U64(uint64(c.Checkins))
	w.U64(uint64(len(c.Inputs)))
	for _, in := range c.Inputs {
		in.encodeInto(w)
	}
	w.Blob(c.Workspace)
	w.U64(uint64(len(c.Savepoints)))
	for _, sp := range c.Savepoints {
		w.Str(sp.Name)
		w.Blob(sp.Workspace)
	}
}

// decodeContext decodes a recContext payload. Only the two phases a live DOP
// can be logged in are accepted.
func decodeContext(data []byte) (ctxRecord, error) {
	r := binenc.NewReader(data)
	c := ctxRecord{DA: r.Str(), Phase: Phase(r.Byte()), Checkins: int(r.U64())}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		c.Inputs = append(c.Inputs, decodeInputRef(r))
	}
	c.Workspace = r.Blob()
	n = r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		c.Savepoints = append(c.Savepoints, namedSnapshot{Name: r.Str(), Workspace: r.Blob()})
	}
	if err := recordErr(r); err != nil {
		return c, err
	}
	if c.Phase != PhaseActive && c.Phase != PhaseSuspended {
		return c, fmt.Errorf("txn: decode: context record in phase %s", c.Phase)
	}
	return c, nil
}

// recordErr is wireErr for a durable record, which must also end where its
// fields end.
func recordErr(r *binenc.Reader) error {
	if err := wireErr(r); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("txn: decode: %d trailing bytes", n)
	}
	return nil
}
