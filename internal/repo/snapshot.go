package repo

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"concord/internal/binenc"
	"concord/internal/version"
	"concord/internal/wal"
)

// Checkpointing (DESIGN.md §3.5, §3.8): the repository bounds restart time
// and log disk usage by periodically capturing its state in snapshot files,
// then telling the segmented WAL to drop the covered prefix. Since PR 8 the
// capture is non-quiescent and incremental:
//
//  1. Cut. Holding the quiesce lock exclusively for microseconds only, the
//     checkpointer notes the log position L (= log.Size()), captures the 64
//     published shard pointers of the copy-on-write MVCC index plus their
//     dirty generations, the DA directory, and a shallow copy of the
//     metadata store. Mutators hold the quiesce lock shared for the span
//     [WAL reservation, publication] (§3.7), so the captured pointers are
//     exactly the effect of all records below L; and because published
//     records and shard maps are immutable (mvcc.go), the cut stays frozen
//     while writers proceed — encoding happens entirely off-lock.
//  2. Encode + install. A *full* checkpoint writes every shard to
//     snap-<L>.base and atomically rewrites the manifest to reference it. An
//     *incremental* checkpoint writes only the shards whose generation moved
//     since the previous checkpoint to snap-<L>.inc and appends one entry to
//     the manifest. Either way the payload file is fsynced (file + dirent)
//     strictly before the manifest references it.
//  3. wal.Checkpoint(L): durably mark L as the log's low-water mark, then
//     delete the segments lying entirely below it. The manifest entry
//     covering L is fsync-durable first (step 2), so the mark never exceeds
//     surviving chain coverage — the invariant segment deletion relies on.
//
// Recovery folds the manifest chain (base + incremental deltas, per-shard
// replacement; manifest.go) and replays the log suffix from the chain's
// coverage LSN. A crash at any step loses nothing: payload files are
// uniquely named and unreferenced until the manifest points at them, the
// manifest rebase is an atomic rename, the incremental append is a single
// fsynced frame whose torn tail parses as a shorter valid prefix, and the
// log mark only moves after the covering entry is durable.
//
// Chains are rebased (full checkpoint) when they grow past
// Options.CheckpointMaxChain elements or CheckpointMaxChainBytes payload
// bytes, and always on the first checkpoint after Open (dirty generations
// are volatile). Options.QuiescentCheckpoint restores the pre-PR-8
// stop-the-world behaviour — encode under the exclusive lock, full snapshot
// every time — as the E19 ablation baseline.
const (
	legacySnapName = "snapshot"
	snapTmpName    = "snapshot.tmp"
	snapMagic      = "CCSNAP01"
	incMagic       = "CCINCR01"
)

// Default rebase thresholds (Options.CheckpointMaxChain{,Bytes}).
const (
	DefaultCheckpointMaxChain      = 8
	DefaultCheckpointMaxChainBytes = 256 << 20
)

// Crash points traversed on Options.Faults during Checkpoint, in protocol
// order (the wal.Crash* points fire inside wal.Checkpoint).
const (
	// CrashSnapshotPartial fires halfway through writing a full snapshot's
	// payload file.
	CrashSnapshotPartial = "repo:snapshot-partial"
	// CrashSnapshotWritten fires after the full payload file is written and
	// synced, before the manifest references it.
	CrashSnapshotWritten = "repo:snapshot-written"
	// CrashManifestTmp fires after the rebased manifest tmp is written and
	// synced, before the rename installs it.
	CrashManifestTmp = "repo:manifest-tmp"
	// CrashSnapshotInstalled fires after the manifest rebase rename, before
	// the WAL low-water mark is moved.
	CrashSnapshotInstalled = "repo:snapshot-installed"
	// CrashIncPartial fires halfway through writing an incremental delta
	// file.
	CrashIncPartial = "repo:inc-delta-partial"
	// CrashIncWritten fires after the delta file is written and synced,
	// before its manifest entry is appended.
	CrashIncWritten = "repo:inc-delta-written"
	// CrashIncAppended fires after the delta's manifest entry is appended
	// and synced, before the WAL low-water mark is moved.
	CrashIncAppended = "repo:inc-manifest-appended"
	// CrashSnapGC fires after a full checkpoint committed (mark moved),
	// before unreferenced snapshot files of the superseded chain are
	// removed.
	CrashSnapGC = "repo:snap-gc"
)

// CrashPoints lists every step of the checkpoint protocol a fault point can
// target: the full-rebase steps, the incremental-delta steps, the wal mark
// steps (traversed by both paths), then the post-commit GC. The
// fault-injection harness iterates it so no step goes unexercised.
var CrashPoints = []string{
	CrashSnapshotPartial,
	CrashSnapshotWritten,
	CrashManifestTmp,
	CrashSnapshotInstalled,
	CrashIncPartial,
	CrashIncWritten,
	CrashIncAppended,
	wal.CrashBeforeMark,
	wal.CrashMarkTmp,
	wal.CrashMarkInstalled,
	wal.CrashSegmentDeleted,
	CrashSnapGC,
}

// ckptGens is the dirty-mark vector captured at a cut: one publication
// generation per index shard plus the metadata store's. A checkpoint records
// the vector it captured; the next incremental emits exactly the components
// that moved.
type ckptGens struct {
	shards [idxShards]uint64
	meta   uint64
}

// snapCut is a consistent copy-on-write cut of the repository at snapLSN:
// frozen shard maps (nil for shards clean since the previous checkpoint on
// the incremental path), the DA directory, a shallow metadata copy (nil when
// clean), and the generation vector the cut was taken at.
type snapCut struct {
	full    bool
	snapLSN wal.LSN
	prevLSN wal.LSN
	seq     uint64
	daNames []string
	shards  [idxShards]*map[version.ID]*dovEntry
	meta    map[string][]byte
	gens    ckptGens
}

// captureCutLocked takes the cut. Caller holds the quiesce lock exclusively
// (this is the entire stall a checkpoint imposes on writers) and ckptMu.
// Returns nil when the log has not grown since the last checkpoint.
func (r *Repository) captureCutLocked(full bool) *snapCut {
	snapLSN := wal.LSN(r.log.Size())
	if snapLSN <= r.snapLSN {
		return nil
	}
	last := r.lastGens
	if last == nil {
		full = true // dirty marks are volatile: nothing to diff against
	}
	c := &snapCut{full: full, snapLSN: snapLSN, prevLSN: r.snapLSN, seq: r.seq.Load()}
	das := *r.dasPub.Load()
	for da := range das {
		c.daNames = append(c.daNames, da)
	}
	sort.Strings(c.daNames)
	for i := range r.idx.shards {
		s := &r.idx.shards[i]
		c.gens.shards[i] = s.gen
		if full || s.gen != last.shards[i] {
			c.shards[i] = s.p.Load()
		}
	}
	r.metaMu.Lock()
	c.gens.meta = r.metaGen
	if full || r.metaGen != last.meta {
		m := make(map[string][]byte, len(r.meta))
		for k, v := range r.meta {
			m[k] = v // values are immutable (PutMeta stores a private copy)
		}
		c.meta = m
	}
	r.metaMu.Unlock()
	return c
}

// Checkpoint captures the repository state and compacts the redo log behind
// it. Concurrent mutators are blocked only for the pointer-capture cut
// (microseconds), never while state is encoded or written out — except under
// the QuiescentCheckpoint ablation, which encodes the full state inside the
// exclusive section to reproduce the historical stall. Safe to call
// concurrently; checkpoints are serialized and monotonic.
func (r *Repository) Checkpoint() error {
	if r.log == nil {
		return nil // volatile repository: nothing to compact
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()

	full := r.quiescentCkpt || r.lastGens == nil ||
		len(r.chain) >= r.maxChain || r.chainBytes >= r.maxChainBytes

	start := time.Now()
	r.mu.Lock()
	// writable, not alive: a degraded repository must not advance the
	// checkpoint mark — its in-memory state may be ahead of the durable
	// log, and the disk is refusing writes anyway.
	if err := r.writable(); err != nil {
		r.mu.Unlock()
		return err
	}
	cut := r.captureCutLocked(full)
	var payload []byte
	if r.quiescentCkpt && cut != nil {
		payload = encodeBaseCut(cut)
	}
	r.mu.Unlock()
	r.notePause(time.Since(start))
	if cut == nil {
		return nil
	}
	if payload == nil {
		if cut.full {
			payload = encodeBaseCut(cut)
		} else {
			payload = encodeIncCut(cut)
		}
	}
	var err error
	if cut.full {
		err = r.installBase(cut, payload)
	} else {
		err = r.installIncremental(cut, payload)
	}
	if err != nil {
		// The protocol may have stopped after a durable step (delta file on
		// disk, manifest entry appended) without committing in-memory chain
		// state. Force the next checkpoint to rebase: a full rewrite of the
		// manifest re-establishes every invariant regardless of where the
		// previous attempt died.
		r.lastGens = nil
		return err
	}
	return nil
}

// installBase runs the full-rebase install protocol: payload file, manifest
// rewrite, log mark, GC of the superseded chain.
func (r *Repository) installBase(cut *snapCut, payload []byte) error {
	entry := manifestEntry{kind: manifestKindBase, file: snapFileName(cut.snapLSN, true), lsn: cut.snapLSN}
	if err := r.writeSnapFile(entry.file, payload, CrashSnapshotPartial); err != nil {
		return err
	}
	if err := r.hookAt(CrashSnapshotWritten); err != nil {
		return err
	}
	// A rebase rewrites the whole manifest, so the replication epoch entry
	// must be carried over or a restart would forget the fencing term.
	entries := []manifestEntry{entry}
	if e := r.epoch.Load(); e > 0 {
		entries = []manifestEntry{epochEntry(e), entry}
	}
	if err := r.rebaseManifest(entries); err != nil {
		return err
	}
	if err := r.hookAt(CrashSnapshotInstalled); err != nil {
		return err
	}
	if err := r.log.Checkpoint(cut.snapLSN); err != nil {
		return err
	}
	r.snapLSN = cut.snapLSN
	r.chain = []manifestEntry{entry}
	r.chainBytes = int64(len(payload))
	gens := cut.gens
	r.lastGens = &gens
	// The checkpoint is committed; only the cleanup of now-unreferenced
	// files remains (recovery tolerates the garbage and Open re-collects it).
	if err := r.hookAt(CrashSnapGC); err != nil {
		return err
	}
	r.gcSnapshots()
	return nil
}

// installIncremental runs the delta install protocol: delta file, manifest
// append, log mark.
func (r *Repository) installIncremental(cut *snapCut, payload []byte) error {
	entry := manifestEntry{kind: manifestKindInc, file: snapFileName(cut.snapLSN, false), lsn: cut.snapLSN}
	if err := r.writeSnapFile(entry.file, payload, CrashIncPartial); err != nil {
		return err
	}
	if err := r.hookAt(CrashIncWritten); err != nil {
		return err
	}
	if err := r.appendManifest(entry); err != nil {
		return err
	}
	if err := r.hookAt(CrashIncAppended); err != nil {
		return err
	}
	if err := r.log.Checkpoint(cut.snapLSN); err != nil {
		return err
	}
	r.snapLSN = cut.snapLSN
	r.chain = append(r.chain, entry)
	r.chainBytes += int64(len(payload))
	gens := cut.gens
	r.lastGens = &gens
	return nil
}

// SnapshotLSN reports the log position covered by the installed snapshot
// chain (0 when none was ever taken).
func (r *Repository) SnapshotLSN() wal.LSN {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.snapLSN
}

// SnapshotChain reports the length of the live snapshot chain (1 after a
// full checkpoint, growing by 1 per incremental) and its payload bytes.
func (r *Repository) SnapshotChain() (elems int, bytes int64) {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return len(r.chain), r.chainBytes
}

// CheckpointPause reports the duration writers were blocked by the last
// snapshot cut and the maximum over the repository's lifetime — the
// quantity E19 bounds. Under QuiescentCheckpoint this includes the full
// state encoding; in the default design it is pointer capture only.
func (r *Repository) CheckpointPause() (last, max time.Duration) {
	return time.Duration(r.lastPauseNs.Load()), time.Duration(r.maxPauseNs.Load())
}

// notePause records one exclusive-section duration.
func (r *Repository) notePause(d time.Duration) {
	r.lastPauseNs.Store(int64(d))
	for {
		cur := r.maxPauseNs.Load()
		if int64(d) <= cur || r.maxPauseNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// hookAt traverses a crash point on the fault registry; an armed point
// aborts the checkpoint exactly at that step.
func (r *Repository) hookAt(point string) error {
	if err := r.faults.At(point); err != nil {
		return fmt.Errorf("repo: checkpoint aborted at %s: %w", point, err)
	}
	return nil
}

// snapFileName names a chain payload file by the log position it covers.
func snapFileName(lsn wal.LSN, base bool) string {
	if base {
		return fmt.Sprintf("snap-%016x.base", uint64(lsn))
	}
	return fmt.Sprintf("snap-%016x.inc", uint64(lsn))
}

// appendCRC appends the crc32-IEEE trailer shared by all snapshot payloads.
func appendCRC(payload []byte) []byte {
	crc := make([]byte, 4)
	binary.LittleEndian.PutUint32(crc, crc32.ChecksumIEEE(payload))
	return append(payload, crc...)
}

// checkCRC verifies and strips the trailer.
func checkCRC(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("repo: snapshot payload too short")
	}
	payload, crc := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crc) {
		return nil, fmt.Errorf("repo: snapshot checksum mismatch")
	}
	return payload, nil
}

// encodeRecords appends the cut's captured DOV records from the given shards
// in Seq order (the original log order, so rebuilding preserves every
// derivation edge). Payloads are written as stored: the resident encoding is
// already the record's canonical form.
func encodeRecords(w *binenc.Writer, shards []*map[version.ID]*dovEntry) {
	var entries []*dovEntry
	for _, m := range shards {
		for _, e := range *m {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].dov.Seq < entries[j].dov.Seq })
	w.U64(uint64(len(entries)))
	for _, e := range entries {
		v := e.dov
		w.Blob(dovRecord{
			ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents,
			Object: e.enc, Status: v.Status, Fulfilled: v.Fulfilled, Seq: v.Seq,
			Root: e.root,
		}.encode())
	}
}

// encodeMeta appends the metadata store in key order.
func encodeMeta(w *binenc.Writer, meta map[string][]byte) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.Str(k)
		w.Blob(meta[k])
	}
}

// encodeBaseCut serializes a full cut in the CCSNAP01 format (identical to
// the pre-chain single-snapshot format, so legacy snapshots load as a
// one-element chain).
func encodeBaseCut(c *snapCut) []byte {
	w := binenc.NewWriter(1 << 16)
	w.Str(snapMagic)
	w.U64(uint64(c.snapLSN))
	w.U64(c.seq)
	w.Strs(c.daNames)
	all := make([]*map[version.ID]*dovEntry, 0, idxShards)
	for i := range c.shards {
		if c.shards[i] != nil {
			all = append(all, c.shards[i])
		}
	}
	encodeRecords(w, all)
	encodeMeta(w, c.meta)
	return appendCRC(w.Bytes())
}

// encodeIncCut serializes an incremental cut in the CCINCR01 format: header
// (coverage LSN, predecessor LSN, sequence counter, complete DA list), the
// metadata store when dirty, then each dirty shard as a complete replacement
// record set. Emitting whole shards — not per-record diffs — keeps the fold
// a plain per-shard replacement with no tombstone machinery.
func encodeIncCut(c *snapCut) []byte {
	w := binenc.NewWriter(1 << 14)
	w.Str(incMagic)
	w.U64(uint64(c.snapLSN))
	w.U64(uint64(c.prevLSN))
	w.U64(c.seq)
	w.Strs(c.daNames)
	w.Bool(c.meta != nil)
	if c.meta != nil {
		encodeMeta(w, c.meta)
	}
	var dirty []int
	for i := range c.shards {
		if c.shards[i] != nil {
			dirty = append(dirty, i)
		}
	}
	w.U64(uint64(len(dirty)))
	for _, i := range dirty {
		w.U64(uint64(i))
		encodeRecords(w, []*map[version.ID]*dovEntry{c.shards[i]})
	}
	return appendCRC(w.Bytes())
}

// writeSnapFile durably writes one chain payload file: write (traversing
// partialPoint halfway), fsync, close, fsync the directory — the file must
// be fully durable before any manifest entry references it.
func (r *Repository) writeSnapFile(name string, payload []byte, partialPoint string) error {
	f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repo: snapshot create: %w", err)
	}
	half := len(payload) / 2
	if _, err := f.Write(payload[:half]); err != nil {
		f.Close()
		return fmt.Errorf("repo: snapshot write: %w", err)
	}
	if err := r.hookAt(partialPoint); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(payload[half:]); err != nil {
		f.Close()
		return fmt.Errorf("repo: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repo: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repo: snapshot close: %w", err)
	}
	if err := wal.SyncDir(r.dir); err != nil {
		return fmt.Errorf("repo: snapshot dir sync: %w", err)
	}
	return nil
}

// gcSnapshots removes snapshot payload files no chain entry references (the
// superseded chain after a rebase, leftovers of crashed attempts), the
// legacy single-file snapshot and stray tmps. Only called when the in-memory
// chain matches the durable manifest; best-effort.
func (r *Repository) gcSnapshots() {
	ref := make(map[string]bool, len(r.chain))
	for _, e := range r.chain {
		ref[e.file] = true
	}
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		n := de.Name()
		if ref[n] {
			continue
		}
		if isSnapPayloadName(n) || n == legacySnapName || n == snapTmpName || n == manifestTmpName {
			os.Remove(filepath.Join(r.dir, n)) //nolint:errcheck // best-effort cleanup
		}
	}
}
