package repo

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
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
// then telling the segmented WAL to drop the covered prefix. The capture is
// non-quiescent and incremental:
//
//  1. Cut. Holding the quiesce lock exclusively for microseconds only, the
//     checkpointer notes the log position L (= log.Size()), captures the 64
//     published shard pointers of the copy-on-write MVCC index plus their
//     generations, the DA directory, and a shallow copy of the metadata
//     store. Mutators hold the quiesce lock shared for the span [WAL
//     reservation, publication] (§3.7), so the captured pointers are
//     exactly the effect of all records below L; and because published
//     records and shard maps are immutable (mvcc.go), the cut stays frozen
//     while writers proceed — encoding happens entirely off-lock.
//  2. Encode + install. Every checkpoint streams one payload file in one
//     layout (CCINCR01): a header, the metadata store when the cut carries
//     it, and the cut's records as one list in Seq order. A *rebase* (full
//     checkpoint) names predecessor 0 and carries the metadata store and
//     every record; it goes to snap-<L>.base and atomically rewrites the
//     manifest to reference it alone. A *delta* carries the records
//     published since the previous cut — each record carries the shard
//     generation it was published at — goes to snap-<L>.inc and appends one
//     entry to the manifest. Either way the payload file is fsynced (file +
//     dirent) strictly before the manifest references it, and no step holds
//     more than a buffer of it in memory.
//  3. wal.Checkpoint(L): durably mark L as the log's low-water mark, then
//     delete the segments lying entirely below it. The manifest entry
//     covering L is fsync-durable first (step 2), so the mark never exceeds
//     surviving chain coverage — the invariant segment deletion relies on.
//
// Recovery folds the manifest chain (a chain element's role comes from its
// manifest entry: the base resets the fold, every element merges its records
// by version ID; manifest.go) and replays the log suffix from the chain's
// coverage LSN. A crash at any step loses nothing: payload files are
// uniquely named and unreferenced until the manifest points at them, the
// manifest rebase is an atomic rename, the delta append is a single fsynced
// frame whose torn tail parses as a shorter valid prefix, and the log mark
// only moves after the covering entry is durable.
//
// A chain is rebased once its deltas' bytes reach its base's, so rebase work
// stays proportional to the state, amortized; also when
// Options.CheckpointMaxChain is set and reached, after a failed checkpoint,
// and on the first checkpoint of a repository opened without a chain.
// CheckpointMaxChain 1 makes every checkpoint a rebase.
//
// snapMagic is the base layout an older build wrote (header, every record,
// metadata store); the loader still reads it, and the next rebase replaces
// it.
const (
	snapMagic = "CCSNAP01"
	incMagic  = "CCINCR01"
)

// Crash points traversed on Options.Faults during Checkpoint, in protocol
// order (the wal.Crash* points fire inside wal.Checkpoint).
const (
	// CrashSnapshotPartial fires once a checkpoint's payload file holds
	// everything but its CRC trailer.
	CrashSnapshotPartial = "repo:snapshot-partial"
	// CrashSnapshotWritten fires after the payload file is written and
	// synced, before the manifest references it.
	CrashSnapshotWritten = "repo:snapshot-written"
	// CrashManifestTmp fires after a rebase's manifest tmp is written and
	// synced, before the rename installs it.
	CrashManifestTmp = "repo:manifest-tmp"
	// CrashSnapshotInstalled fires after the manifest rebase rename, before
	// the WAL low-water mark is moved.
	CrashSnapshotInstalled = "repo:snapshot-installed"
	// CrashIncAppended fires after a delta's manifest entry is appended and
	// synced, before the WAL low-water mark is moved.
	CrashIncAppended = "repo:inc-manifest-appended"
	// CrashSnapGC fires after a rebase committed (mark moved), before
	// unreferenced snapshot files of the superseded chain are removed.
	CrashSnapGC = "repo:snap-gc"
)

// CrashPoints lists every step of the checkpoint protocol a fault point can
// target: the payload-file steps every checkpoint passes, the rebase's
// manifest steps, the delta's, the wal mark steps, then the rebase's GC. The
// fault-injection harness iterates it so no step goes unexercised.
var CrashPoints = []string{
	CrashSnapshotPartial,
	CrashSnapshotWritten,
	CrashManifestTmp,
	CrashSnapshotInstalled,
	CrashIncAppended,
	wal.CrashBeforeMark,
	wal.CrashMarkTmp,
	wal.CrashMarkInstalled,
	wal.CrashSegmentDeleted,
	CrashSnapGC,
}

// ckptGens is the generation vector captured at a cut: one publication
// generation per index shard plus the metadata store's. A checkpoint records
// the vector it captured; the next incremental writes exactly the records
// published after it.
type ckptGens struct {
	shards [idxShards]uint64
	meta   uint64
}

// snapCut is a consistent copy-on-write cut of the repository at snapLSN:
// frozen shard maps (nil for shards clean since the previous checkpoint on
// the delta path), the generation each dirty shard had at the previous cut,
// the predecessor's coverage (0 for a rebase), the DA directory, a shallow
// metadata copy (nil when clean), and the generation vector the cut was
// taken at.
type snapCut struct {
	full    bool
	snapLSN wal.LSN
	prevLSN wal.LSN
	seq     uint64
	daNames []string
	shards  [idxShards]*map[version.ID]*dovEntry
	since   [idxShards]uint64
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
	c := &snapCut{full: full, snapLSN: snapLSN, seq: r.seq.Load()}
	if !full {
		c.prevLSN = r.snapLSN
	}
	das := *r.dasPub.Load()
	for da := range das {
		c.daNames = append(c.daNames, da)
	}
	sort.Strings(c.daNames)
	last := r.lastGens
	for i := range r.idx.shards {
		s := &r.idx.shards[i]
		c.gens.shards[i] = s.gen
		if full || s.gen != last.shards[i] {
			c.shards[i] = s.p.Load()
		}
		if !full {
			c.since[i] = last.shards[i]
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

// records returns the records the cut writes, in Seq order: every record
// for a rebase, else those published after the previous cut. A rebase cannot
// be told by generations alone: records loaded from a chain carry
// generation 0.
func (c *snapCut) records() []*dovEntry {
	var out []*dovEntry
	for i, s := range c.shards {
		if s == nil {
			continue
		}
		for _, e := range *s {
			if c.full || e.gen > c.since[i] {
				out = append(out, e)
			}
		}
	}
	sortBySeq(out)
	return out
}

// sortBySeq puts records in Seq order — the original log order, so a
// rebuild inserts parents before children and re-wires every derivation
// edge exactly as replay would.
func sortBySeq(entries []*dovEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].dov.Seq < entries[j].dov.Seq })
}

// Checkpoint captures the repository state and compacts the redo log behind
// it. Concurrent mutators are blocked only for the pointer-capture cut
// (microseconds), never while state is encoded or written out. Safe to call
// concurrently; checkpoints are serialized and monotonic.
func (r *Repository) Checkpoint() error {
	if r.log == nil {
		return nil // volatile repository: nothing to compact
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()

	full := r.lastGens == nil ||
		r.maxChain > 0 && len(r.chain) >= r.maxChain ||
		r.chainBytes-r.baseBytes >= r.baseBytes

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
	r.mu.Unlock()
	r.notePause(time.Since(start))
	if cut == nil {
		return nil
	}
	if err := r.install(cut); err != nil {
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

// checkpointPollInterval is how often the background checkpointer samples
// the log size.
const checkpointPollInterval = 250 * time.Millisecond

// DefaultCheckpointLogBytes is the log growth past the low-water mark at
// which the deployments' background checkpointer runs a checkpoint: concordd
// and core.System, in every role.
const DefaultCheckpointLogBytes int64 = 8 << 20

// StartCheckpointer launches the background compaction loop: whenever the
// log — staged 2PC records included — has grown thresholdBytes past its
// low-water mark, it runs a checkpoint, keeping restart time and disk usage
// bounded by live state instead of history length. A follower compacts its
// shipped log the same way, so the loop is started once by whoever opens a
// durable repository, whatever its role. Close stops it. Call at most once;
// a volatile repository has nothing to compact and starts nothing.
func (r *Repository) StartCheckpointer(thresholdBytes int64) {
	if r.log == nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	r.ckptMu.Lock()
	r.stopCheckpointer = func() { close(stop); <-done }
	r.ckptMu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(checkpointPollInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if r.LogSize()-int64(r.LowWater()) < thresholdBytes {
				continue
			}
			// A failed checkpoint is not fatal to the running server: the
			// log keeps growing until the next attempt, and the fail-stop
			// underneath is reported by every regular operation too.
			_ = r.Checkpoint()
		}
	}()
}

// install runs the checkpoint protocol for a cut: payload file, manifest
// step, log mark, and for a rebase the GC of the superseded chain.
func (r *Repository) install(cut *snapCut) error {
	entry := manifestEntry{kind: manifestKindInc, file: snapFileName(cut.snapLSN, cut.full), lsn: cut.snapLSN}
	if cut.full {
		entry.kind = manifestKindBase
	}
	w, err := r.writeSnapFile(entry.file, cut)
	if err != nil {
		return err
	}
	if err := r.commit(cut, entry); err != nil {
		w.f.Close()
		return err
	}
	r.snapLSN = cut.snapLSN
	entry.f = w.f
	old := r.chain
	if cut.full {
		r.chain = []manifestEntry{entry}
		r.chainBytes, r.baseBytes = w.size, w.size
	} else {
		r.chain = append(r.chain, entry)
		r.chainBytes += w.size
	}
	gens := cut.gens
	r.lastGens = &gens
	// The checkpoint is committed. After a rebase every location names the
	// new base, so the superseded chain's handles can go: a reader that
	// raced the close finds the moved location and retries there.
	r.settle(w)
	if !cut.full {
		return nil
	}
	r.closeChain(old)
	// Only the cleanup of now-unreferenced files remains (recovery tolerates
	// the garbage and Open re-collects it).
	if err := r.hookAt(CrashSnapGC); err != nil {
		return err
	}
	r.gcSnapshots()
	return nil
}

// commit makes a written payload file durable as part of the chain — a
// rebase rewrites the manifest to it alone, a delta appends it — then moves
// the log mark.
func (r *Repository) commit(cut *snapCut, entry manifestEntry) error {
	if err := r.hookAt(CrashSnapshotWritten); err != nil {
		return err
	}
	if cut.full {
		// A rebase rewrites the whole manifest, so the replication epoch
		// entry must be carried over or a restart would forget the fencing
		// term.
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
	} else {
		if err := r.appendManifest(entry); err != nil {
			return err
		}
		if err := r.hookAt(CrashIncAppended); err != nil {
			return err
		}
	}
	return r.log.Checkpoint(cut.snapLSN)
}

// settle runs once the checkpoint that wrote w has committed: every body w
// holds moves its location there, and each located version that now has a
// child in its derivation graph drops its resident bytes. Caller holds
// ckptMu.
func (r *Repository) settle(w *written) {
	for _, p := range w.placed {
		p.loc.f = w.f
		p.e.body.locate(p.loc)
	}
	for _, p := range w.placed {
		evictParents(p.e, r.idx.get)
	}
}

// evictParents drops the resident bytes of e's located parents in e's own
// derivation graph — the versions e makes non-leaves there. A root has no
// edges in its graph, and a parent in another DA's graph is a foreign input.
func evictParents(e *dovEntry, get func(version.ID) (*dovEntry, bool)) {
	if e.root {
		return
	}
	for _, id := range e.dov.Parents {
		if pe, ok := get(id); ok && pe.dov.DA == e.dov.DA {
			pe.body.evict()
		}
	}
}

// closeChain releases the payload file handles of chain entries.
func (r *Repository) closeChain(chain []manifestEntry) {
	for _, e := range chain {
		if e.f != nil {
			e.f.Close() //nolint:errcheck // read-only use; written files were synced before the chain took them
		}
	}
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

// checkpointPause reports the duration writers were blocked by the last
// snapshot cut and the maximum over the repository's lifetime — the
// quantity TestCheckpointLatencyBounds bounds: pointer capture only, never
// the state encoding.
func (r *Repository) checkpointPause() (last, max time.Duration) {
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

// payloadWriter streams one chain payload file: fields are staged in a
// small buffer, resident payloads go to the file as they lie, cold ones are
// read from their old location through one reused buffer, and a running
// CRC-32 over everything written becomes the 4-byte trailer every payload
// ends with. Memory stays at the buffers' size, whatever the state's. Each
// record's payload is placed — offset, length, CRC-32C — for the locations
// the commit publishes.
type payloadWriter struct {
	bw     *bufio.Writer
	w      *binenc.Writer // field bytes not yet written out
	rec    *binenc.Writer // head and tail of the record being written
	cold   []byte         // read buffer for cold payloads
	crc    hash.Hash32
	n      int64
	err    error
	placed []placed
}

// placed is where a payload file holds one record's payload; the file
// handle is filled in when the checkpoint commits.
type placed struct {
	e   *dovEntry
	loc bodyLoc
}

func newPayloadWriter(dst io.Writer) *payloadWriter {
	return &payloadWriter{
		bw: bufio.NewWriterSize(dst, 256<<10), w: binenc.NewWriter(4 << 10), rec: binenc.NewWriter(256),
		crc: crc32.NewIEEE(),
	}
}

// raw writes b, covering it with the CRC. Errors are sticky.
func (pw *payloadWriter) raw(b []byte) {
	if pw.err != nil || len(b) == 0 {
		return
	}
	pw.crc.Write(b) //nolint:errcheck // a hash never fails
	n, err := pw.bw.Write(b)
	pw.n += int64(n)
	pw.err = err
}

// spill writes the staged field bytes out.
func (pw *payloadWriter) spill() {
	pw.raw(pw.w.Bytes())
	pw.w.Reset()
}

// flush hands everything written so far to the destination.
func (pw *payloadWriter) flush() error {
	pw.spill()
	if pw.err == nil {
		pw.err = pw.bw.Flush()
	}
	return pw.err
}

// trailer returns the CRC-32 of everything written so far, encoded as the
// payload's 4-byte trailer.
func (pw *payloadWriter) trailer() []byte {
	return binary.LittleEndian.AppendUint32(nil, pw.crc.Sum32())
}

// records writes a count-prefixed record list. Each record is framed as a
// length-prefixed dovRecord exactly as dovRecord.encodeInto lays it out,
// with the payload written straight from where it lies.
func (pw *payloadWriter) records(entries []*dovEntry) {
	pw.w.U64(uint64(len(entries)))
	for _, e := range entries {
		enc, sum := pw.payload(e.body)
		if pw.err != nil {
			return
		}
		v := e.dov
		d := dovRecord{
			ID: v.ID, DOT: v.DOT, DA: v.DA, Parents: v.Parents,
			Object: enc, Status: v.Status, Fulfilled: v.Fulfilled, Seq: v.Seq,
			Root: e.root,
		}
		pw.rec.Reset()
		d.encodeHead(pw.rec)
		head := len(pw.rec.Bytes())
		d.encodeTail(pw.rec)
		b := pw.rec.Bytes()
		pw.w.U64(uint64(len(b) + len(enc)))
		pw.spill()
		pw.raw(b[:head])
		pw.placed = append(pw.placed, placed{e, bodyLoc{off: pw.n, n: len(enc), crc: sum}})
		pw.raw(enc)
		pw.raw(b[head:])
	}
}

// payload returns a record's payload and its CRC-32C: the resident encoding,
// or a cold payload read from its current location (its CRC checked there)
// into the writer's buffer. Only the checkpointer moves locations or closes
// chain files, and it is the caller, so the location cannot change under
// the read.
func (pw *payloadWriter) payload(b *body) ([]byte, uint32) {
	s := b.at.Load()
	if s.enc != nil {
		return s.enc, crc32.Checksum(s.enc, castagnoli)
	}
	enc, err := s.loc.read(pw.cold)
	if err != nil {
		pw.err = err
		return nil, 0
	}
	pw.cold = enc
	return enc, s.loc.crc
}

// meta writes the metadata store in key order.
func (pw *payloadWriter) meta(meta map[string][]byte) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pw.w.U64(uint64(len(keys)))
	for _, k := range keys {
		pw.w.Str(k)
		pw.w.Blob(meta[k])
		pw.spill()
	}
}

// write streams the cut in the CCINCR01 layout: header (coverage LSN,
// predecessor LSN, sequence counter, complete DA list), the metadata store
// when the cut carries it, then the records as one group. The group's shard
// index is a relic of deltas that were grouped by shard; the loader ignores
// it.
func (c *snapCut) write(pw *payloadWriter) {
	pw.w.Str(incMagic)
	pw.w.U64(uint64(c.snapLSN))
	pw.w.U64(uint64(c.prevLSN))
	pw.w.U64(c.seq)
	pw.w.Strs(c.daNames)
	pw.w.Bool(c.meta != nil)
	if c.meta != nil {
		pw.meta(c.meta)
	}
	pw.w.U64(1)
	pw.w.U64(0)
	pw.records(c.records())
}

// written is a durably written chain payload file: its handle, kept open
// for the cold reads its locations will serve, its size, and where it holds
// each record's payload.
type written struct {
	f      *os.File
	size   int64
	placed []placed
}

// writeSnapFile durably writes cut's payload file: the body streamed and
// flushed, CrashSnapshotPartial traversed (the file then lacks only its CRC
// trailer), the trailer, fsync, fsync of the directory — the file must be
// fully durable before any manifest entry references it. The handle stays
// open; the caller owns it.
func (r *Repository) writeSnapFile(name string, cut *snapCut) (*written, error) {
	f, err := os.OpenFile(filepath.Join(r.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repo: snapshot create: %w", err)
	}
	pw := newPayloadWriter(f)
	cut.write(pw)
	if err := pw.flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: snapshot write: %w", err)
	}
	if err := r.hookAt(CrashSnapshotPartial); err != nil {
		f.Close()
		return nil, err
	}
	trailer := pw.trailer()
	if _, err := f.Write(trailer); err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: snapshot sync: %w", err)
	}
	if err := wal.SyncDir(r.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: snapshot dir sync: %w", err)
	}
	return &written{f: f, size: pw.n + int64(len(trailer)), placed: pw.placed}, nil
}

// gcSnapshots removes snapshot payload files no chain entry references (the
// superseded chain after a rebase, leftovers of crashed attempts) and a
// stray manifest tmp. Only called when the in-memory chain matches the
// durable manifest; best-effort.
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
		if isSnapPayloadName(n) || n == manifestTmpName {
			os.Remove(filepath.Join(r.dir, n)) //nolint:errcheck // best-effort cleanup
		}
	}
}
