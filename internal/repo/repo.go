// Package repo implements the CONCORD design-data repository: the
// "advanced DBMS (object and version management)" at the bottom of Fig. 1.
//
// The repository stores design object versions (DOVs) organized into
// per-design-activity derivation graphs, validates every checked-in version
// against its design object type (schema consistency, Sect. 5.2), and makes
// all state durable through a write-ahead redo log so that a server crash
// loses no committed version. It also offers a small durable key/value
// metadata store used by the cooperation manager (DA hierarchy state,
// cooperation protocol log) and the design managers (persistent scripts and
// script logs), mirroring the paper's decision to keep all level-specific
// context data in the server DBMS.
package repo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/version"
	"concord/internal/wal"
)

// WAL record types used by the repository.
const (
	recDOVInsert wal.RecordType = iota + 1
	recDOVStatus
	recMetaPut
	recMetaDel
	recGraphNew
)

// Errors reported by the repository.
var (
	ErrUnknownGraph = errors.New("repo: unknown derivation graph")
	ErrUnknownMeta  = errors.New("repo: unknown metadata key")
	ErrValidation   = errors.New("repo: schema validation failed")
	// ErrFatal reports that a forced log write failed after its mutation
	// was applied in memory: the volatile state may be ahead of the log,
	// so the repository fail-stops rather than serve phantom data. A
	// restart recovers the durable prefix.
	ErrFatal = errors.New("repo: durability failure, repository is fail-stop")
	// ErrDegraded reports that the log stopped accepting writes (e.g. a
	// full disk) and the repository latched read-only degraded mode
	// (Options.DegradedOnWALFailure): reads keep serving from the MVCC
	// index, every mutation is refused with this sentinel. A restart with
	// the disk healthy recovers the durable prefix and clears the mode.
	ErrDegraded = errors.New("repo: degraded (read-only), log not accepting writes")
	// ErrFollower reports a mutation refused because the repository is a
	// warm-standby replication follower (Options.Follower): its state
	// changes arrive exclusively through ApplyShipped until Promote ends
	// follower mode. Reads serve normally from the hot MVCC index.
	ErrFollower = errors.New("repo: follower (standby replica, mutations arrive via replication)")
	// ErrCorrupt reports a cold version whose payload, read back from its
	// chain payload file, fails the checksum recorded when it was written.
	// The read returns this error, never the bytes.
	ErrCorrupt = errors.New("repo: stored payload fails its checksum")
)

// Options configures a Repository.
type Options struct {
	// Dir is the durable storage directory; empty means volatile
	// (in-memory only, no crash recovery).
	Dir string
	// Sync forces the log to stable storage on every append.
	Sync bool
	// SegmentBytes is the WAL segment rotation threshold (0 uses
	// wal.DefaultSegmentBytes). Checkpointing deletes whole sealed
	// segments, so smaller segments compact at a finer grain.
	SegmentBytes int64
	// Faults, when non-nil, is the named fault-point registry traversed at
	// the steps of the checkpoint protocol (the repo Crash* constants plus
	// the wal.Crash* constants). An armed point aborts the operation
	// there, simulating a crash. Tests only; see CrashPoints.
	Faults *fault.Registry
	// CheckpointMaxChain additionally bounds the snapshot chain length: once
	// the chain holds this many elements, the next checkpoint rebases (writes
	// a fresh full snapshot) even if its deltas are still smaller than the
	// base. 0 sets no count bound — the byte rule alone decides (DESIGN.md
	// §3.8); tests and scenarios set 1 or 2 to force the rebase path.
	CheckpointMaxChain int
	// DegradedOnWALFailure turns a durability failure (failed WAL
	// append/fsync, e.g. disk full) into read-only degraded mode instead
	// of a repository-wide fail-stop: reads keep serving from the MVCC
	// index while mutations are refused with ErrDegraded. The tradeoff is
	// visibility of the narrow in-flight window — mutations whose log
	// record was refused at the moment of failure were never published,
	// but an already-published mutation whose batch fsync failed may be
	// readable yet not durable until restart rolls the log back to its
	// durable prefix. See DESIGN.md §5.3.
	DegradedOnWALFailure bool
	// Follower opens the repository as a warm-standby replication
	// follower (DESIGN.md §5.4): direct mutations are refused with
	// ErrFollower and state changes arrive exclusively through
	// ApplyShipped, which appends the primary's shipped WAL frames and
	// applies them to the live MVCC index so promotion finds the state
	// hot. Promote ends follower mode.
	Follower bool
}

// Repository is the design data repository. All methods are safe for
// concurrent use.
//
// Reads are multi-versioned (DESIGN.md §3.6): Get, Stat, Lookup, Exists,
// EncodedObject and Graph never take the repository lock and never decode
// payloads — they return immutable records published through the
// copy-on-write index in mvcc.go. Every stored version keeps its metadata
// in memory, but only leaves and versions newer than the last checkpoint
// keep their payload there, as its canonical encoding. Any other version is
// cold: its payload lives only in the checkpoint's chain payload file, and
// Lookup and Object read it back with pread, checked against a CRC-32C. The
// DOVs Get and Graph hand out carry no Object, and Object decodes a private
// copy on request. Callers must treat every returned DOV and encoding as
// read-only.
//
// Writes are sharded by design area (DESIGN.md §3.7): a checkin holds the
// repository-wide quiesce lock shared plus its DA's write lock, so checkins
// to distinct DAs proceed concurrently and serialize only inside one
// derivation graph. The snapshot encoder is the only exclusive holder of the
// quiesce lock, which is what keeps the §3.5 (snapshot state == effect of
// all records below the noted LSN) invariant intact without a global writer
// mutex.
type Repository struct {
	cat *catalog.Catalog
	dir string
	// faults is the crash-point fault-injection registry (tests only).
	faults *fault.Registry

	// mu is the quiesce lock. Mutators hold it SHARED for the span
	// [WAL reservation, in-memory publication]; the snapshot encoder (and
	// state-wide diagnostics) hold it EXCLUSIVE, which blocks out every
	// in-flight mutation and makes (state, log.Size()) a consistent pair
	// (§3.5). Actual mutual exclusion between writers is per resource:
	// daState.mu for a DA's graph + version inserts, idx shard mutexes for
	// index publication, metaMu for the metadata store.
	mu sync.RWMutex

	// dasMu serializes DA-state creation; lookups go through dasPub.
	dasMu sync.Mutex
	das   map[string]*daState
	// dasPub is the atomically swapped DA directory for lock-free lookups
	// (DAs are created rarely; each creation copies the map and swaps the
	// pointer).
	dasPub atomic.Pointer[map[string]*daState]

	// metaMu guards the metadata store (cold path: manager context data)
	// and its dirty generation.
	metaMu sync.Mutex
	meta   map[string][]byte
	// metaGen counts durable metadata mutations — the incremental
	// checkpointer's dirty mark for the store (§3.8). Guarded by metaMu.
	metaGen uint64

	// seq is the repository-wide version sequence counter.
	seq atomic.Uint64
	log *wal.Log

	// idx is the sharded read index and writer-side version directory
	// (mvcc.go). Readers only load; writers claim/publish per shard.
	idx dovIndex
	// lin interns the lineage every published version carries (lineage.go).
	lin lineages
	// degradedOnWAL selects read-only degraded mode over fail-stop when a
	// log write fails (Options.DegradedOnWALFailure).
	degradedOnWAL bool
	// degraded is latched instead of fatal when degradedOnWAL is set: the
	// read path stays open, the mutation path is refused with ErrDegraded.
	degraded atomic.Pointer[error]
	// follower marks warm-standby mode (Options.Follower): mutations are
	// refused with ErrFollower and state arrives via ApplyShipped until
	// Promote clears it. Atomic so the hot paths check it lock-free.
	follower atomic.Bool
	// epoch is the replication epoch (promotion term) persisted in the
	// snapshot manifest — the fencing token of DESIGN.md §5.4. Writes go
	// through BumpEpoch (under ckptMu, durably); reads are lock-free.
	epoch atomic.Uint64
	// fatal is latched when a reserved log record failed to become durable
	// (see appendAsync): the in-memory state is then ahead of the log and
	// every subsequent operation is refused with ErrFatal. Atomic so the
	// lock-free read path can check it without the lock.
	fatal atomic.Pointer[error]

	// ckptMu serializes checkpoints and guards the chain state below:
	// snapLSN (the log position the durable chain covers), the manifest
	// chain itself, its payload byte total and its base's share of it, and
	// the generation vector of the last committed cut. A nil vector forces
	// the next checkpoint to be a full rebase: after Open without a chain,
	// and after a failed checkpoint. Open with a chain starts from the zero
	// vector, since chain-loaded records carry generation 0.
	ckptMu     sync.Mutex
	snapLSN    wal.LSN
	chain      []manifestEntry
	chainBytes int64
	baseBytes  int64
	lastGens   *ckptGens
	// stopCheckpointer stops the background checkpointer and waits for it
	// to exit; nil while none runs (StartCheckpointer).
	stopCheckpointer func()
	// maxChain is Options.CheckpointMaxChain (0: no count bound).
	maxChain int
	// lastPauseNs/maxPauseNs instrument the exclusive-lock window of the
	// snapshot cut — the writer stall E19 bounds.
	lastPauseNs atomic.Int64
	maxPauseNs  atomic.Int64

	// onChange, when set, is invoked after every durable version mutation
	// (see SetChangeHook).
	changeMu sync.RWMutex
	onChange func(ChangeEvent)
}

// daState is the writer-side record of one design area: its derivation graph
// plus the write lock serializing mutations of that graph. Checkins to
// different DAs take different locks, which is the §3.7 sharding.
type daState struct {
	mu sync.Mutex
	g  *version.Graph
}

// insert adds a version to the graph: as an adopted root (foreign parents
// allowed) or derived from its parents.
func (st *daState) insert(v *version.DOV, root bool) error {
	if root {
		return st.g.AdoptRoot(v)
	}
	return st.g.InsertDerived(v)
}

// ChangeKind distinguishes version-change events pushed to the hook.
type ChangeKind uint8

// Version-change kinds.
const (
	// ChangeCheckin reports a newly installed DOV; Parents carries the
	// versions it supersedes as "latest in its line".
	ChangeCheckin ChangeKind = iota + 1
	// ChangeStatus reports a lifecycle-status update (promotion,
	// invalidation) of an existing DOV.
	ChangeStatus
)

// ChangeEvent describes one durable version mutation.
type ChangeEvent struct {
	// Kind says what happened.
	Kind ChangeKind
	// ID is the affected (new or updated) version.
	ID version.ID
	// DA owns the version's derivation graph.
	DA string
	// Parents are the superseded versions (ChangeCheckin only).
	Parents []version.ID
	// Status is the new lifecycle status.
	Status version.Status
}

// SetChangeHook registers fn to run after every durable version mutation
// (checkin, status update), outside all repository locks and after the
// mutation's log record is durable. The server-TM uses it to push workstation
// cache invalidations (DESIGN.md §4). One hook; nil unregisters.
func (r *Repository) SetChangeHook(fn func(ChangeEvent)) {
	r.changeMu.Lock()
	r.onChange = fn
	r.changeMu.Unlock()
}

// fireChange delivers ev to the registered hook, if any.
func (r *Repository) fireChange(ev ChangeEvent) {
	r.changeMu.RLock()
	fn := r.onChange
	r.changeMu.RUnlock()
	if fn != nil {
		fn(ev)
	}
}

// Lookup is the checkout read: a stored version's metadata record (no
// Object), the canonical encoding of its payload and its content hash. For
// a resident version that is one index load, and once the hash is memoized
// the call takes no lock and allocates nothing. A cold version's encoding is
// a fresh buffer read from its chain payload file; a read error or a
// checksum mismatch (ErrCorrupt) is returned as an error, never as bytes.
func (r *Repository) Lookup(id version.ID) (meta *version.DOV, enc, hash []byte, err error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, nil, nil, err
	}
	if enc, err = e.body.bytes(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w (version %s)", err, id)
	}
	return e.dov, enc, e.body.hashOf(enc), nil
}

// Stat is Lookup without the encoding: the metadata record and the content
// hash. A version whose hash is memoized answers without reading its
// payload, resident or not — what a NotModified checkout needs.
func (r *Repository) Stat(id version.ID) (meta *version.DOV, hash []byte, err error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, nil, err
	}
	if hash, err = e.body.contentHash(); err != nil {
		return nil, nil, fmt.Errorf("%w (version %s)", err, id)
	}
	return e.dov, hash, nil
}

// entry is the lock-free index read behind every version accessor.
func (r *Repository) entry(id version.ID) (*dovEntry, error) {
	if err := r.alive(); err != nil {
		return nil, err
	}
	e, ok := r.idx.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", version.ErrUnknownDOV, id)
	}
	return e, nil
}

// EncodedObject is Lookup without the metadata. The repository's own callers
// use Lookup; this form stays for the layer benchmark in bench/.
func (r *Repository) EncodedObject(id version.ID) (enc, hash []byte, err error) {
	_, enc, hash, err = r.Lookup(id)
	return enc, hash, err
}

// Object decodes a stored version's payload into a fresh object the caller
// owns and may mutate. The repository keeps only the encoding, so every call
// pays a decode (and a cold version a read): it is for the rare server-side
// readers of design data (feature evaluation, tools, tests), not for the
// checkout path.
func (r *Repository) Object(id version.ID) (*catalog.Object, error) {
	_, enc, _, err := r.Lookup(id)
	if err != nil {
		return nil, err
	}
	return catalog.DecodeObject(enc)
}

// Open creates or recovers a repository. When opts.Dir names a directory
// containing prior repository state, recovery loads the last snapshot (if
// any) and replays only the redo-log suffix behind it, so restart work is
// bounded by live state plus the records since the last checkpoint. Only
// leaves and the versions the log suffix replays keep their payload
// resident; every other version is cold in the chain it was loaded from.
func Open(cat *catalog.Catalog, opts Options) (*Repository, error) {
	if cat == nil {
		return nil, errors.New("repo: nil catalog")
	}
	r := &Repository{
		cat:           cat,
		dir:           opts.Dir,
		faults:        opts.Faults,
		degradedOnWAL: opts.DegradedOnWALFailure,
		maxChain:      opts.CheckpointMaxChain,
		das:           make(map[string]*daState),
		meta:          make(map[string][]byte),
	}
	r.follower.Store(opts.Follower)
	r.idx.init()
	r.lin.init()
	r.publishDAs()
	if opts.Dir != "" {
		if err := r.recoverDir(opts); err != nil {
			r.closeChain(r.chain)
			return nil, err
		}
	}
	return r, nil
}

// recoverDir loads and publishes the snapshot chain, opens the log and
// replays its suffix through applyRecord, the applier of shipped batches.
// On error the caller releases the chain's handles.
func (r *Repository) recoverDir(opts Options) error {
	if err := r.loadSnapshotChain(); err != nil {
		return err
	}
	snapLSN := r.snapLSN
	l, err := wal.Open(filepath.Join(opts.Dir, "repo.wal"), wal.Options{
		SyncOnAppend: opts.Sync,
		SegmentBytes: opts.SegmentBytes,
		Faults:       opts.Faults,
	})
	if err != nil {
		return err
	}
	r.log = l
	// A mark beyond the surviving chain coverage means records the chain
	// was supposed to carry are gone from the log — genuine loss (e.g. a
	// deleted manifest). Refuse to open rather than silently serve a
	// truncated history. The checkpoint protocol makes this unreachable:
	// the covering manifest entry is fsync-durable strictly before the
	// mark moves.
	if l.LowWater() > snapLSN {
		l.Close()
		return fmt.Errorf("repo: checkpoint mark %d beyond snapshot chain coverage %d (manifest truncated or missing)",
			l.LowWater(), snapLSN)
	}
	// Complete a checkpoint whose chain entry installed but whose log
	// mark was lost to a crash: the chain's coverage is authoritative and
	// wal.Checkpoint is idempotent and monotonic.
	if snapLSN > l.LowWater() {
		if err := l.Checkpoint(snapLSN); err != nil {
			l.Close()
			return err
		}
	}
	// Records below snapLSN are already reflected in the chain (the mark
	// normally equals snapLSN, but a crash between chain install and log
	// mark can leave older records in the log). Every record applied here
	// publishes at a fresh generation, so the first checkpoint after Open
	// is an incremental delta of exactly what the suffix touched.
	if err := l.Replay(func(rec wal.Record) error {
		if rec.LSN < snapLSN {
			return nil
		}
		return r.applyRecord(rec)
	}); err != nil {
		l.Close()
		return err
	}
	// Leaves stay resident: a chain-loaded version with a child anywhere in
	// what was loaded or replayed drops its payload bytes.
	r.idx.each(func(_ version.ID, e *dovEntry) { evictParents(e, r.idx.get) })
	// Collect leftovers of crashed checkpoint attempts (unreferenced
	// payload files, stray tmps). The parsed chain matches the durable
	// manifest prefix, so everything outside it is garbage.
	r.gcSnapshots()
	return nil
}

// publishDAs swaps in a fresh copy of the DA directory. Callers hold dasMu
// (or own the repository exclusively, as at Open).
func (r *Repository) publishDAs() {
	m := make(map[string]*daState, len(r.das))
	for da, st := range r.das {
		m[da] = st
	}
	r.dasPub.Store(&m)
}

// Close stops the background checkpointer, if one runs, and releases the
// underlying log and the snapshot chain's payload files. Cold versions are
// unreadable afterwards.
func (r *Repository) Close() error {
	r.ckptMu.Lock()
	stop := r.stopCheckpointer
	r.stopCheckpointer = nil
	r.ckptMu.Unlock()
	if stop != nil {
		stop()
	}
	r.ckptMu.Lock()
	r.closeChain(r.chain)
	r.ckptMu.Unlock()
	if r.log != nil {
		return r.log.Close()
	}
	return nil
}

// Catalog returns the repository's DOT catalog.
func (r *Repository) Catalog() *catalog.Catalog { return r.cat }

type dovRecord struct {
	ID        version.ID
	DOT       string
	DA        string
	Parents   []version.ID
	Object    []byte
	Status    version.Status
	Fulfilled []string
	Seq       uint64
	Root      bool // adopted root (foreign parents allowed)
}

// encodeInto writes the record in the binenc hot-path format (gob's
// per-record engine compilation showed up in the checkin profile). Checkin
// encodes into a pooled writer; the bytes only need to survive until the WAL
// frames them.
func (d dovRecord) encodeInto(w *binenc.Writer) {
	d.encodeHead(w)
	w.Raw(d.Object)
	d.encodeTail(w)
}

// encodeHead writes the fields before the payload, ending with the payload's
// length prefix; encodeTail writes the fields after it. Split so the
// snapshot writer can stream a resident payload without copying it
// (payloadWriter.record).
func (d dovRecord) encodeHead(w *binenc.Writer) {
	w.Str(string(d.ID))
	w.Str(d.DOT)
	w.Str(d.DA)
	w.U64(uint64(len(d.Parents)))
	for _, p := range d.Parents {
		w.Str(string(p))
	}
	w.U64(uint64(len(d.Object)))
}

func (d dovRecord) encodeTail(w *binenc.Writer) {
	w.Byte(byte(d.Status))
	w.Strs(d.Fulfilled)
	w.U64(d.Seq)
	w.Bool(d.Root)
}

// decodeDOVRecord decodes one record and reports the offset of its payload
// within data. Its Object aliases data: the snapshot loader reads each
// record into a buffer of its own, so that buffer becomes the resident
// encoding with no further copy.
func decodeDOVRecord(data []byte) (d dovRecord, objOff int, err error) {
	r := binenc.NewReader(data)
	d = dovRecord{ID: version.ID(r.Str()), DOT: r.Str(), DA: r.Str()}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		d.Parents = append(d.Parents, version.ID(r.Str()))
	}
	d.Object = r.BlobView()
	objOff = len(data) - r.Remaining() - len(d.Object)
	d.Status = version.Status(r.Byte())
	d.Fulfilled = r.Strs()
	d.Seq = r.U64()
	d.Root = r.Bool()
	return d, objOff, r.Err()
}

// decodeInsert is the CPU-heavy half of recovering one DOV record: record
// decode plus a walk of the payload as a validity check (§3.7). The encoding
// is copied out of the log record, which carries the metadata around it or
// shares a shipped batch; the exactly sized copy becomes the resident form.
func decodeInsert(data []byte) (*dovRecord, error) {
	dr, _, err := decodeDOVRecord(data)
	if err != nil {
		return nil, fmt.Errorf("repo: recover DOV: %w", err)
	}
	if err := catalog.CheckEncoded(dr.Object); err != nil {
		return nil, err
	}
	dr.Object = append([]byte(nil), dr.Object...)
	return &dr, nil
}

// meta returns the record's metadata as a published DOV (no Object).
func (d *dovRecord) meta() *version.DOV {
	return &version.DOV{
		ID: d.ID, DOT: d.DOT, DA: d.DA, Parents: d.Parents,
		Status: d.Status, Fulfilled: d.Fulfilled, Seq: d.Seq,
	}
}

// applyRecord applies one redo record to the published state. It is the
// one record applier: Open replays the log suffix behind the snapshot chain
// through it, and a follower applies every shipped record with it
// (DESIGN.md §5.4). Both callers exclude other mutators — Open owns the
// repository, ApplyShipped holds the quiesce lock exclusively — yet every
// change goes through the normal publication path, because a follower's
// lock-free readers are watching.
func (r *Repository) applyRecord(rec wal.Record) error {
	switch rec.Type {
	case recGraphNew:
		da := string(rec.Payload)
		r.dasMu.Lock()
		if _, ok := r.das[da]; !ok {
			r.das[da] = &daState{g: version.NewGraph(da)}
			r.publishDAs()
		}
		r.dasMu.Unlock()
	case recDOVInsert:
		d, err := decodeInsert(rec.Payload)
		if err != nil {
			return err
		}
		return r.installRecord(d)
	case recDOVStatus:
		return r.applyStatus(rec.Payload)
	case recMetaPut:
		key, value, ok := bytes.Cut(rec.Payload, []byte{0})
		if !ok {
			return errors.New("repo: recover meta: bad payload")
		}
		r.metaMu.Lock()
		r.meta[string(key)] = append([]byte(nil), value...)
		r.metaGen++
		r.metaMu.Unlock()
	case recMetaDel:
		r.metaMu.Lock()
		if _, ok := r.meta[string(rec.Payload)]; ok {
			delete(r.meta, string(rec.Payload))
			r.metaGen++
		}
		r.metaMu.Unlock()
	}
	return nil
}

// installRecord publishes one logged DOV exactly as the original checkin
// did: claim, graph insert, index publication.
func (r *Repository) installRecord(dr *dovRecord) error {
	v := dr.meta()
	r.dasMu.Lock()
	st, ok := r.das[dr.DA]
	if !ok {
		st = &daState{g: version.NewGraph(dr.DA)}
		r.das[dr.DA] = st
		r.publishDAs()
	}
	r.dasMu.Unlock()
	if !r.idx.claim(v.ID) {
		return fmt.Errorf("%w: recover %s", version.ErrDuplicateDOV, v.ID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.insert(v, dr.Root); err != nil {
		r.idx.unclaim(v.ID)
		return err
	}
	r.idx.put(v.ID, &dovEntry{dov: v, body: residentBody(dr.Object), root: dr.Root, lin: r.lin.of(v.Parents, r.idx.get)})
	if dr.Seq > r.seq.Load() {
		r.seq.Store(dr.Seq)
	}
	return nil
}

// applyStatus applies a logged status record through the normal
// republication path (fresh immutable record, graph swap).
func (r *Repository) applyStatus(payload []byte) error {
	id, rest, ok := bytes.Cut(payload, []byte{0})
	if !ok || len(rest) != 1 {
		// A missing status byte is a corrupt record: it must fail the
		// apply, not index past the end.
		return errors.New("repo: recover status: bad payload")
	}
	e, found := r.idx.get(version.ID(id))
	if !found {
		return fmt.Errorf("repo: recover status: unknown DOV %s", id)
	}
	st, found := (*r.dasPub.Load())[e.dov.DA]
	if !found {
		return fmt.Errorf("%w: %s", ErrUnknownGraph, e.dov.DA)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e, _ = r.idx.get(version.ID(id))
	nv := *e.dov
	nv.Status = version.Status(rest[0])
	return r.republish(st, &nv, e)
}

// noWait is the wait function of volatile repositories (no log).
func noWait() (wal.LSN, error) { return 0, nil }

// appendAsync reserves a log record and returns its durability wait
// function. Mutators call it while holding the quiesce lock (shared) plus
// the mutated resource's lock — the reservation fixes the record's replay
// position relative to every other mutation of that resource — and invoke
// the wait after releasing their locks, so the fsync happens outside the
// repository locks and concurrent transactions' records group into one
// commit batch.
//
// The in-memory state is applied at reservation time, before durability.
// This never lets a replay dangle: a version is published only after its
// record is reserved, and anything derived from it reserves later (records
// enter the log in reservation order), so the crash-surviving log prefix is
// always self-consistent — see the §3.7 cross-DA argument. The one
// remaining hazard is a failed wait (disk error): the applied state would
// be ahead of the log, so the wait wrapper below turns that into a
// repository-wide fail-stop (ErrFatal) instead of serving phantom data.
func (r *Repository) appendAsync(t wal.RecordType, owner string, payload []byte) (func() (wal.LSN, error), error) {
	if r.log == nil {
		return noWait, nil
	}
	wait, err := r.log.AppendAsync(t, owner, payload)
	if err != nil {
		return nil, err
	}
	return func() (wal.LSN, error) {
		lsn, err := wait()
		if err != nil {
			r.failStop(err)
			// Surface the latched sentinel (ErrDegraded / ErrFatal) so the
			// failing mutation itself unwraps like every later one — over
			// the wire it maps to the registered code.
			if lerr := r.writable(); lerr != nil {
				err = lerr
			}
		}
		return lsn, err
	}, nil
}

// failStop latches the durability-failure state: read-only degraded mode
// when DegradedOnWALFailure is set, repository-wide fail-stop otherwise.
// The latch is a lock-free CAS so it is safe from any path.
func (r *Repository) failStop(cause error) {
	// Both the mode sentinel and the cause stay matchable: a deposed
	// primary's latched error answers errors.Is for rpc.ErrStaleEpoch too.
	if r.degradedOnWAL {
		err := fmt.Errorf("%w: %w", ErrDegraded, cause)
		r.degraded.CompareAndSwap(nil, &err)
		return
	}
	err := fmt.Errorf("%w: %w", ErrFatal, cause)
	r.fatal.CompareAndSwap(nil, &err)
}

// alive returns the latched fatal error, if any. Degraded mode does NOT
// trip it: reads stay open. Lock-free; safe from any path.
func (r *Repository) alive() error {
	if p := r.fatal.Load(); p != nil {
		return *p
	}
	return nil
}

// writable returns the latched fatal or degraded error, if any — the
// mutation-path liveness check. Lock-free; safe from any path.
func (r *Repository) writable() error {
	if err := r.alive(); err != nil {
		return err
	}
	if p := r.degraded.Load(); p != nil {
		return *p
	}
	return nil
}

// Health describes the repository's availability mode for the status RPC
// and scenario oracles.
type Health struct {
	// Mode is "ok", "degraded" (read-only, mutations refused with
	// ErrDegraded) or "failstop" (all operations refused with ErrFatal).
	Mode string
	// Cause is the latched durability error, empty in mode "ok".
	Cause string
}

// Health reports the current availability mode. Lock-free.
func (r *Repository) Health() Health {
	if p := r.fatal.Load(); p != nil {
		return Health{Mode: "failstop", Cause: (*p).Error()}
	}
	if p := r.degraded.Load(); p != nil {
		return Health{Mode: "degraded", Cause: (*p).Error()}
	}
	return Health{Mode: "ok"}
}

// beginMutation takes the quiesce lock shared and checks liveness. It
// returns the matching unlock.
func (r *Repository) beginMutation() (func(), error) {
	if r.follower.Load() {
		return nil, ErrFollower
	}
	r.mu.RLock()
	if err := r.writable(); err != nil {
		r.mu.RUnlock()
		return nil, err
	}
	return r.mu.RUnlock, nil
}

// finishWrite releases a mutation's locks and then resolves its durability
// wait(s): unlocking first lets concurrent writers' records share a
// group-commit fsync. unlock must release every lock the mutator holds;
// waits beyond the first are cleanup records whose errors are ignored
// (replay tolerates their absence).
func (r *Repository) finishWrite(unlock func(), waits ...func() (wal.LSN, error)) error {
	unlock()
	var ferr error
	for i, w := range waits {
		if w == nil {
			continue
		}
		if _, err := w(); err != nil && i == 0 {
			ferr = err
		}
	}
	return ferr
}

// lockDA looks the DA up (lock-free) and takes its write lock.
func (r *Repository) lockDA(da string) (*daState, bool) {
	st, ok := (*r.dasPub.Load())[da]
	if !ok {
		return nil, false
	}
	st.mu.Lock()
	return st, true
}

// NextID allocates a fresh repository-wide DOV identifier.
func (r *Repository) NextID() version.ID {
	return version.ID(fmt.Sprintf("dov-%06d", r.seq.Add(1)))
}

// CreateGraph creates (idempotently) the derivation graph of a DA.
func (r *Repository) CreateGraph(da string) error {
	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	r.dasMu.Lock()
	if _, ok := r.das[da]; ok {
		r.dasMu.Unlock()
		end()
		return nil
	}
	wait, err := r.appendAsync(recGraphNew, da, []byte(da))
	if err != nil {
		r.dasMu.Unlock()
		end()
		return err
	}
	// Publication after reservation: a checkin can only find the DA (and
	// reserve records into its graph) once the graph's own record holds an
	// earlier log position.
	r.das[da] = &daState{g: version.NewGraph(da)}
	r.publishDAs()
	r.dasMu.Unlock()
	return r.finishWrite(end, wait)
}

// Graph returns the derivation graph of a DA. Lock-free: the DA directory
// is an atomically swapped copy-on-write map (graphs themselves synchronize
// internally).
func (r *Repository) Graph(da string) (*version.Graph, error) {
	if err := r.alive(); err != nil {
		return nil, err
	}
	st, ok := (*r.dasPub.Load())[da]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGraph, da)
	}
	return st.g, nil
}

// Checkin validates and durably stores a new DOV, extending its DA's
// derivation graph. This is the server-side half of the DOP checkin
// operation: "the consistency of the newly created DOV has to be checked
// and further, its DA's derivation graph is extended" (Sect. 5.2).
// When root is true the version is adopted as a graph root and may carry
// parents from foreign graphs (initial DOV0 or inherited finals).
//
// Ownership: the repository publishes a metadata copy of v (sharing its
// Parents and Fulfilled slices, which the caller must not mutate afterwards)
// and the canonical encoding of v.Object; it retains neither v nor the
// object, so the caller keeps both (DESIGN.md §3.6).
func (r *Repository) Checkin(v *version.DOV, root bool) error {
	return r.CheckinCleanup(v, root, "")
}

// CheckinCleanup performs Checkin and, when cleanupKey is non-empty, deletes
// that metadata key in the same durable commit batch (single fsync). The
// server-TM's 2PC commit uses it to install a DOV and drop its staged
// record with one forced log write.
//
// Concurrency (§3.7): the critical section runs under the quiesce lock
// (shared) plus the DA's write lock, so checkins to distinct DAs proceed in
// parallel and their durability waits share one group-commit fsync.
func (r *Repository) CheckinCleanup(v *version.DOV, root bool, cleanupKey string) error {
	if v == nil {
		return errors.New("repo: nil DOV")
	}
	if v.Object == nil {
		return fmt.Errorf("%w: DOV %s has no payload", ErrValidation, v.ID)
	}
	if v.Object.Type != v.DOT {
		return fmt.Errorf("%w: DOV %s payload type %s, declared DOT %s", ErrValidation, v.ID, v.Object.Type, v.DOT)
	}
	if err := r.cat.Validate(v.Object); err != nil {
		return fmt.Errorf("%w: %v", ErrValidation, err)
	}

	// Encoding does not need any lock; do it before entering the critical
	// section (the object is the caller's copy). The encoding, sized exactly
	// by EncodeObject, stays resident as the version's stored form.
	objBytes, err := catalog.EncodeObject(v.Object)
	if err != nil {
		return err
	}

	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	st, ok := r.lockDA(v.DA)
	if !ok {
		end()
		return fmt.Errorf("%w: %s", ErrUnknownGraph, v.DA)
	}
	fail := func(err error) error {
		st.mu.Unlock()
		end()
		return err
	}
	// The claim is the race-free duplicate check: it reserves the ID against
	// every concurrent checkin, in any DA, before the log position is taken.
	if !r.idx.claim(v.ID) {
		return fail(fmt.Errorf("%w: %s", version.ErrDuplicateDOV, v.ID))
	}
	if !root {
		// Parents may live in other DAs' graphs (usage inputs) but must
		// exist somewhere in the repository. The lock-free index only shows
		// published versions, i.e. versions whose log reservation already
		// happened — which is exactly what keeps replay order topological
		// across DAs (§3.7).
		for _, p := range v.Parents {
			if _, ok := r.idx.get(p); !ok {
				r.idx.unclaim(v.ID)
				return fail(fmt.Errorf("%w: parent %s of %s", version.ErrUnknownDOV, p, v.ID))
			}
		}
	}
	v.Seq = r.seq.Add(1)
	meta := *v
	meta.Object = nil

	// Encode the log record into a pooled writer: the WAL frames (copies)
	// the bytes during the reservation, so the buffer is recycled as soon
	// as appendAsync returns.
	recw := binenc.GetWriter(96 + len(objBytes))
	dovRecord{
		ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents,
		Object: objBytes, Status: v.Status, Fulfilled: v.Fulfilled, Seq: v.Seq, Root: root,
	}.encodeInto(recw)
	// Reserve-then-apply: the reservation pins the record's replay position
	// while the DA lock is held; the durability wait happens after unlock so
	// concurrent checkins share one fsync (see appendAsync).
	wait, err := r.appendAsync(recDOVInsert, v.DA, recw.Bytes())
	recw.Free()
	if err != nil {
		r.idx.unclaim(v.ID)
		return fail(err)
	}
	if err := st.insert(&meta, root); err != nil {
		r.idx.unclaim(v.ID)
		return fail(err)
	}
	// Publish the immutable record for lock-free readers, consuming the
	// claim: the metadata plus objBytes, the very encoding just logged. The
	// content hash is left to the first checkout.
	r.idx.put(v.ID, &dovEntry{dov: &meta, body: residentBody(objBytes), root: root, lin: r.lin.of(meta.Parents, r.idx.get)})
	var cleanupWait func() (wal.LSN, error)
	if cleanupKey != "" {
		r.metaMu.Lock()
		if _, ok := r.meta[cleanupKey]; ok {
			// Reserved right behind the insert: the two records normally
			// land in the same batch, so the waits below cost one fsync.
			if w, err := r.appendAsync(recMetaDel, "", []byte(cleanupKey)); err == nil {
				delete(r.meta, cleanupKey)
				r.metaGen++
				cleanupWait = w
			}
		}
		r.metaMu.Unlock()
	}
	if err := r.finishWrite(func() { st.mu.Unlock(); end() }, wait, cleanupWait); err != nil {
		return err
	}
	r.fireChange(ChangeEvent{
		Kind: ChangeCheckin, ID: v.ID, DA: v.DA,
		Parents: append([]version.ID(nil), v.Parents...), Status: v.Status,
	})
	return nil
}

// Get returns the metadata record of the stored version with the given ID —
// everything but the payload, whose Object field is nil (Object decodes the
// payload, Lookup adds its encoding). The record is immutable and shared
// (MVCC checkout semantics, DESIGN.md §3.6): the read takes no lock and
// copies nothing, and in exchange the caller must not mutate it.
func (r *Repository) Get(id version.ID) (*version.DOV, error) {
	e, err := r.entry(id)
	if err != nil {
		return nil, err
	}
	return e.dov, nil
}

// Exists reports whether a version is stored. A fail-stopped repository
// returns the latched ErrFatal instead of a silent false, so callers can
// tell "not stored" from "repository down" (a dead repository must never
// read as a missing DOV).
func (r *Repository) Exists(id version.ID) (bool, error) {
	if err := r.alive(); err != nil {
		return false, err
	}
	_, ok := r.idx.get(id)
	return ok, nil
}

// SetStatus durably updates a version's lifecycle status. The update
// installs a fresh immutable record (MVCC): readers holding the superseded
// record keep a consistent view, and the derivation graph swaps to the new
// record under its own lock. Like checkin, the update serializes only
// within the version's DA (§3.7).
func (r *Repository) SetStatus(id version.ID, s version.Status) error {
	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	e, ok := r.idx.get(id)
	if !ok {
		end()
		return fmt.Errorf("%w: %s", version.ErrUnknownDOV, id)
	}
	st, ok := r.lockDA(e.dov.DA)
	if !ok {
		end()
		return fmt.Errorf("%w: %s", ErrUnknownGraph, e.dov.DA)
	}
	// Re-read under the DA lock: a concurrent update may have republished
	// the entry (its DA never changes).
	e, _ = r.idx.get(id)
	payload := append([]byte(id), 0, byte(s))
	wait, err := r.appendAsync(recDOVStatus, e.dov.DA, payload)
	if err != nil {
		st.mu.Unlock()
		end()
		return err
	}
	nv := *e.dov
	nv.Status = s
	if err := r.republish(st, &nv, e); err != nil {
		st.mu.Unlock()
		end()
		return err
	}
	da := nv.DA
	if err := r.finishWrite(func() { st.mu.Unlock(); end() }, wait); err != nil {
		return err
	}
	r.fireChange(ChangeEvent{Kind: ChangeStatus, ID: id, DA: da, Status: s})
	return nil
}

// SetFulfilled records the feature names a version satisfied at its last
// evaluation (volatile cache; recomputable, so not logged). Installs a fresh
// immutable record like SetStatus.
func (r *Repository) SetFulfilled(id version.ID, names []string) error {
	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	defer end()
	e, ok := r.idx.get(id)
	if !ok {
		return fmt.Errorf("%w: %s", version.ErrUnknownDOV, id)
	}
	st, ok := r.lockDA(e.dov.DA)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownGraph, e.dov.DA)
	}
	defer st.mu.Unlock()
	e, _ = r.idx.get(id)
	nv := *e.dov
	nv.Fulfilled = append([]string(nil), names...)
	return r.republish(st, &nv, e)
}

// republish replaces a version's published record with an updated immutable
// copy: derivation graph and read index both swing to nv. The body (payload,
// location and memoized hash), the root marker and the lineage carry over —
// payloads and graph shape never change after checkin. Caller holds the DA's
// write lock.
func (r *Repository) republish(st *daState, nv *version.DOV, old *dovEntry) error {
	if err := st.g.Replace(nv); err != nil {
		return err
	}
	r.idx.put(nv.ID, &dovEntry{dov: nv, body: old.body, root: old.root, lin: old.lin})
	return nil
}

// Log exposes the repository's redo log (nil for volatile repositories) so
// the embedding server can attach replication: a repl.Sender reads it during
// catch-up and installs its shipper with SetShipper. Callers must not append
// to or close the log directly.
func (r *Repository) Log() *wal.Log { return r.log }

// LogSize reports the logical log size (lifetime high-water LSN; zero for
// volatile repositories). LogSize()-LowWater() is the replay work a restart
// right now would pay — the quantity the background checkpointer bounds.
func (r *Repository) LogSize() int64 {
	if r.log == nil {
		return 0
	}
	return r.log.Size()
}

// LowWater reports the checkpointed log position (replay starts here).
func (r *Repository) LowWater() wal.LSN {
	if r.log == nil {
		return 0
	}
	return r.log.LowWater()
}

// diskLogBytes reports the on-disk footprint of the live log segments plus
// the installed snapshot chain (manifest and every referenced payload file)
// — what checkpointing keeps bounded by live state.
func (r *Repository) diskLogBytes() int64 {
	if r.log == nil {
		return 0
	}
	total := r.log.DiskBytes()
	if fi, err := os.Stat(filepath.Join(r.dir, manifestName)); err == nil {
		total += fi.Size()
	}
	r.ckptMu.Lock()
	chain := append([]manifestEntry(nil), r.chain...)
	r.ckptMu.Unlock()
	for _, e := range chain {
		if fi, err := os.Stat(filepath.Join(r.dir, e.file)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Checkpoints reports how many checkpoints completed since Open.
func (r *Repository) Checkpoints() uint64 {
	if r.log == nil {
		return 0
	}
	return r.log.Checkpoints()
}

// DOVCount returns the number of stored versions. Lock-free.
func (r *Repository) DOVCount() int {
	return r.idx.count()
}

// GraphNames returns the names of all derivation graphs, sorted.
func (r *Repository) GraphNames() []string {
	das := *r.dasPub.Load()
	out := make([]string, 0, len(das))
	for n := range das {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PutMeta durably stores a metadata value (manager context data).
func (r *Repository) PutMeta(key string, value []byte) error {
	if strings.ContainsRune(key, 0) {
		return errors.New("repo: metadata key must not contain NUL")
	}
	payload := make([]byte, 0, len(key)+1+len(value))
	payload = append(payload, key...)
	payload = append(payload, 0)
	payload = append(payload, value...)
	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	r.metaMu.Lock()
	wait, err := r.appendAsync(recMetaPut, "", payload)
	if err != nil {
		r.metaMu.Unlock()
		end()
		return err
	}
	// The log copied the record, so the payload's tail is the store's
	// private copy of the value.
	r.meta[key] = payload[len(key)+1:]
	r.metaGen++
	return r.finishWrite(func() { r.metaMu.Unlock(); end() }, wait)
}

// GetMeta fetches a metadata value.
func (r *Repository) GetMeta(key string) ([]byte, error) {
	if err := r.alive(); err != nil {
		return nil, err
	}
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	v, ok := r.meta[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMeta, key)
	}
	return append([]byte(nil), v...), nil
}

// DeleteMeta durably removes a metadata value (idempotent).
func (r *Repository) DeleteMeta(key string) error {
	end, err := r.beginMutation()
	if err != nil {
		return err
	}
	r.metaMu.Lock()
	if _, ok := r.meta[key]; !ok {
		r.metaMu.Unlock()
		end()
		return nil
	}
	wait, err := r.appendAsync(recMetaDel, "", []byte(key))
	if err != nil {
		r.metaMu.Unlock()
		end()
		return err
	}
	delete(r.meta, key)
	r.metaGen++
	return r.finishWrite(func() { r.metaMu.Unlock(); end() }, wait)
}

// ListMeta returns all metadata keys with the given prefix, sorted.
func (r *Repository) ListMeta(prefix string) []string {
	r.metaMu.Lock()
	defer r.metaMu.Unlock()
	var out []string
	for k := range r.meta {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// CheckConsistency verifies repository invariants: every graph is acyclic
// and every indexed DOV is present in its graph. It quiesces writers (the
// exclusive side of the §3.7 lock order) for a stable cut. Used by tests and
// the recovery path of the server.
func (r *Repository) CheckConsistency() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	das := *r.dasPub.Load()
	for da, st := range das {
		if !st.g.Acyclic() {
			return fmt.Errorf("repo: graph %s has a derivation cycle", da)
		}
	}
	var err error
	r.idx.each(func(id version.ID, e *dovEntry) {
		if err != nil {
			return
		}
		st, ok := das[e.dov.DA]
		if !ok {
			err = fmt.Errorf("repo: DOV %s references missing graph %s", id, e.dov.DA)
			return
		}
		if !st.g.Contains(id) {
			err = fmt.Errorf("repo: DOV %s missing from graph %s", id, e.dov.DA)
		}
	})
	return err
}
