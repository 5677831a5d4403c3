package repo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/version"
	"concord/internal/wal"
)

// The snapshot manifest (DESIGN.md §3.8) is the durable spine of the
// checkpoint chain: an append-only file of CRC-framed entries, each naming
// one payload file (snap-<lsn>.base or snap-<lsn>.inc) and the log position
// it covers. A full checkpoint atomically rewrites the whole manifest to a
// single base entry (tmp + fsync + rename + dir fsync); an incremental
// checkpoint appends one fsynced frame. Recovery reads the longest valid
// prefix — a torn append (crash mid-frame, or garbage at the tail) simply
// shortens the chain, and the WAL mark ordering (mark moves only after the
// covering entry is durable) guarantees the shortened chain plus the
// retained log suffix still reconstructs everything.
const (
	manifestName    = "snapmanifest"
	manifestTmpName = "snapmanifest.tmp"
)

// ManifestFileName is the on-disk name of the snapshot chain manifest inside
// the repository directory. Chaos harnesses use it to corrupt the manifest
// tail from outside the package.
const ManifestFileName = manifestName

// Manifest entry kinds.
const (
	manifestKindBase  = 1 // full snapshot; always the first chain element
	manifestKindInc   = 2 // incremental delta over the preceding chain prefix
	manifestKindEpoch = 3 // replication epoch marker; lsn carries the epoch value
)

// epochEntryFile is the file field of epoch entries. Epoch entries reference
// no payload file; the constant keeps them past the plain-name validation.
const epochEntryFile = "epoch"

// epochEntry builds the manifest frame persisting a replication epoch.
func epochEntry(e uint64) manifestEntry {
	return manifestEntry{kind: manifestKindEpoch, file: epochEntryFile, lsn: wal.LSN(e)}
}

// manifestEntry is one chain element.
type manifestEntry struct {
	kind byte
	file string
	lsn  wal.LSN
}

// encodeManifest frames entries: u32 length | u32 crc32-IEEE | payload,
// payload = byte kind, str file, u64 lsn.
func encodeManifest(entries []manifestEntry) []byte {
	var out []byte
	for _, e := range entries {
		w := binenc.NewWriter(32 + len(e.file))
		w.Byte(e.kind)
		w.Str(e.file)
		w.U64(uint64(e.lsn))
		p := w.Bytes()
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

// parseManifest returns the longest valid entry prefix of data, split into
// the snapshot chain and the highest replication epoch recorded alongside
// it. A frame is valid when it is complete, its CRC matches, its payload
// decodes, and it keeps the chain well-formed: the first chain entry is a
// base, every later one is an incremental, coverage LSNs are strictly
// increasing, and the file name is a plain name (no path separators). Epoch
// entries (kind 3, promotion fencing — DESIGN.md §5.4) sit outside the
// chain-shape rules: they may appear anywhere, the highest value wins, and
// they are not returned as chain elements. Everything from the first invalid
// frame on — a torn append, appended garbage — is ignored.
func parseManifest(data []byte) ([]manifestEntry, uint64) {
	var out []manifestEntry
	var epoch uint64
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data[:4])
		crc := binary.LittleEndian.Uint32(data[4:8])
		if n == 0 || uint64(n) > uint64(len(data)-8) {
			break
		}
		p := data[8 : 8+n]
		if crc32.ChecksumIEEE(p) != crc {
			break
		}
		rd := binenc.NewReader(p)
		e := manifestEntry{kind: rd.Byte(), file: rd.Str(), lsn: wal.LSN(rd.U64())}
		if rd.Err() != nil || rd.Remaining() != 0 {
			break
		}
		if e.file == "" || strings.ContainsAny(e.file, "/\\") || e.file != filepath.Base(e.file) {
			break
		}
		if e.kind == manifestKindEpoch {
			if e.file != epochEntryFile {
				break
			}
			if uint64(e.lsn) > epoch {
				epoch = uint64(e.lsn)
			}
			data = data[8+n:]
			continue
		}
		if len(out) == 0 {
			if e.kind != manifestKindBase {
				break
			}
		} else if e.kind != manifestKindInc || e.lsn <= out[len(out)-1].lsn {
			break
		}
		out = append(out, e)
		data = data[8+n:]
	}
	return out, epoch
}

// isSnapPayloadName reports whether a directory entry is a chain payload
// file (GC candidate when unreferenced).
func isSnapPayloadName(n string) bool {
	return strings.HasPrefix(n, "snap-") &&
		(strings.HasSuffix(n, ".base") || strings.HasSuffix(n, ".inc"))
}

// rebaseManifest atomically replaces the manifest with entries (full
// checkpoint): write tmp, fsync, rename, fsync directory.
func (r *Repository) rebaseManifest(entries []manifestEntry) error {
	tmp := filepath.Join(r.dir, manifestTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repo: manifest tmp: %w", err)
	}
	if _, err := f.Write(encodeManifest(entries)); err != nil {
		f.Close()
		return fmt.Errorf("repo: manifest write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repo: manifest sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repo: manifest close: %w", err)
	}
	if err := r.hookAt(CrashManifestTmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, manifestName)); err != nil {
		return fmt.Errorf("repo: manifest rename: %w", err)
	}
	if err := wal.SyncDir(r.dir); err != nil {
		return fmt.Errorf("repo: manifest dir sync: %w", err)
	}
	return nil
}

// appendManifest appends one fsynced frame to the manifest (incremental
// checkpoint). The manifest must already exist — an append can only follow a
// successful full checkpoint in this process.
func (r *Repository) appendManifest(e manifestEntry) error {
	f, err := os.OpenFile(filepath.Join(r.dir, manifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("repo: manifest append open: %w", err)
	}
	if _, err := f.Write(encodeManifest([]manifestEntry{e})); err != nil {
		f.Close()
		return fmt.Errorf("repo: manifest append: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repo: manifest append sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repo: manifest append close: %w", err)
	}
	return nil
}

// baseSnap is a decoded CCSNAP01 payload.
type baseSnap struct {
	snapLSN wal.LSN
	seq     uint64
	daNames []string
	recs    []dovRecord
	meta    map[string][]byte
}

// decodeBasePayload decodes a full snapshot payload (CRC already verified
// and stripped by the caller).
func decodeBasePayload(payload []byte) (*baseSnap, error) {
	rd := binenc.NewReader(payload)
	if rd.Str() != snapMagic {
		return nil, errors.New("repo: bad snapshot magic")
	}
	b := &baseSnap{snapLSN: wal.LSN(rd.U64()), seq: rd.U64(), daNames: rd.Strs()}
	nDOVs := rd.U64()
	for i := uint64(0); i < nDOVs && rd.Err() == nil; i++ {
		dr, err := decodeDOVRecord(rd.Blob())
		if err != nil {
			return nil, fmt.Errorf("repo: snapshot DOV: %w", err)
		}
		b.recs = append(b.recs, dr)
	}
	b.meta = make(map[string][]byte)
	nMeta := rd.U64()
	for i := uint64(0); i < nMeta && rd.Err() == nil; i++ {
		k := rd.Str()
		b.meta[k] = rd.Blob()
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("repo: decode snapshot: %w", err)
	}
	return b, nil
}

// incShard is one dirty shard's complete replacement record set.
type incShard struct {
	idx  int
	recs []dovRecord
}

// incSnap is a decoded CCINCR01 payload.
type incSnap struct {
	snapLSN wal.LSN
	prevLSN wal.LSN
	seq     uint64
	daNames []string
	hasMeta bool
	meta    map[string][]byte
	shards  []incShard
}

// decodeIncPayload decodes an incremental delta payload (CRC already
// verified and stripped by the caller).
func decodeIncPayload(payload []byte) (*incSnap, error) {
	rd := binenc.NewReader(payload)
	if rd.Str() != incMagic {
		return nil, errors.New("repo: bad delta magic")
	}
	s := &incSnap{
		snapLSN: wal.LSN(rd.U64()), prevLSN: wal.LSN(rd.U64()),
		seq: rd.U64(), daNames: rd.Strs(), hasMeta: rd.Bool(),
	}
	if s.hasMeta {
		s.meta = make(map[string][]byte)
		nMeta := rd.U64()
		for i := uint64(0); i < nMeta && rd.Err() == nil; i++ {
			k := rd.Str()
			s.meta[k] = rd.Blob()
		}
	}
	nShards := rd.U64()
	for i := uint64(0); i < nShards && rd.Err() == nil; i++ {
		sh := incShard{idx: int(rd.U64())}
		if sh.idx < 0 || sh.idx >= idxShards {
			return nil, fmt.Errorf("repo: delta shard index %d out of range", sh.idx)
		}
		nRecs := rd.U64()
		for j := uint64(0); j < nRecs && rd.Err() == nil; j++ {
			dr, err := decodeDOVRecord(rd.Blob())
			if err != nil {
				return nil, fmt.Errorf("repo: delta DOV: %w", err)
			}
			sh.recs = append(sh.recs, dr)
		}
		s.shards = append(s.shards, sh)
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("repo: decode delta: %w", err)
	}
	return s, nil
}

// chainFold accumulates the effect of a manifest chain. Records live in
// per-shard maps because an incremental element replaces whole shards: its
// record set for a dirty shard supersedes every earlier record of that
// shard, while clean shards carry over — no tombstones needed, since the
// repository never deletes versions.
type chainFold struct {
	coverage wal.LSN
	seq      uint64
	daNames  []string
	meta     map[string][]byte
	shards   [idxShards]map[version.ID]dovRecord
}

// foldBase resets the fold to a full snapshot.
func (f *chainFold) foldBase(b *baseSnap) {
	f.coverage = b.snapLSN
	f.seq = b.seq
	f.daNames = b.daNames
	f.meta = b.meta
	for i := range f.shards {
		f.shards[i] = nil
	}
	for _, dr := range b.recs {
		f.placeRecord(dr)
	}
}

// foldInc layers one incremental delta on top of the fold.
func (f *chainFold) foldInc(s *incSnap) {
	f.coverage = s.snapLSN
	f.seq = s.seq
	f.daNames = s.daNames
	if s.hasMeta {
		f.meta = s.meta
	}
	for _, sh := range s.shards {
		f.shards[sh.idx] = nil // whole-shard replacement
		for _, dr := range sh.recs {
			f.placeRecord(dr)
		}
	}
}

// placeRecord stores a record under its ID's true shard (recomputed, not
// trusted from the file, so a corrupt shard index cannot misplace state).
func (f *chainFold) placeRecord(dr dovRecord) {
	i := shardOf(dr.ID)
	if f.shards[i] == nil {
		f.shards[i] = make(map[version.ID]dovRecord)
	}
	f.shards[i][dr.ID] = dr
}

// install materializes the folded state into the recovering repository:
// DA graphs, staged index entries (in Seq order, so every derivation edge
// re-wires exactly as replay would build it), metadata and the sequence
// counter.
func (f *chainFold) install(r *Repository, staging map[version.ID]*dovEntry) error {
	r.seq.Store(f.seq)
	for _, da := range f.daNames {
		if _, ok := r.das[da]; !ok {
			r.das[da] = &daState{g: version.NewGraph(da)}
		}
	}
	var recs []dovRecord
	for i := range f.shards {
		for _, dr := range f.shards[i] {
			recs = append(recs, dr)
		}
	}
	// Seq order: parents always precede children (a parent's Seq is
	// allocated first), so graph inserts re-wire every derivation edge
	// exactly as replay would.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for i := range recs {
		// Parsed as a validity check only, as replay does: the record's
		// encoding is what stays resident.
		if _, err := catalog.DecodeObject(recs[i].Object); err != nil {
			return err
		}
		if err := r.installRecovered(&recs[i], staging); err != nil {
			return err
		}
	}
	for k, v := range f.meta {
		r.meta[k] = v
	}
	return nil
}

// loadSnapshotChain restores repository state from the durable snapshot
// chain into the recovery staging map and returns the chain plus the log
// position it covers. Resolution order:
//
//   - manifest present: fold its longest loadable prefix (parse stops at a
//     torn tail; loading stops at a missing/corrupt payload file or a delta
//     whose predecessor link skips ahead of the folded coverage — the
//     shortened chain plus the WAL suffix is still complete as long as the
//     WAL mark does not exceed the surviving coverage, which Open checks).
//   - no manifest, legacy single snapshot file: load it as a one-element
//     chain (pre-chain format compatibility).
//   - neither: full replay from LSN 0.
func (r *Repository) loadSnapshotChain(staging map[version.ID]*dovEntry) (wal.LSN, []manifestEntry, int64, error) {
	os.Remove(filepath.Join(r.dir, manifestTmpName)) //nolint:errcheck // stray tmp from a crashed rebase
	os.Remove(filepath.Join(r.dir, snapTmpName))     //nolint:errcheck // stray tmp from a pre-chain crash

	data, err := os.ReadFile(filepath.Join(r.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return r.loadLegacySnapshot(staging)
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("repo: read manifest: %w", err)
	}
	entries, epoch := parseManifest(data)
	r.epoch.Store(epoch)
	var fold chainFold
	var kept []manifestEntry
	var keptBytes int64
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(r.dir, e.file))
		if err != nil {
			break
		}
		payload, err := checkCRC(raw)
		if err != nil {
			break
		}
		if e.kind == manifestKindBase {
			b, err := decodeBasePayload(payload)
			if err != nil || b.snapLSN != e.lsn {
				break
			}
			fold.foldBase(b)
		} else {
			s, err := decodeIncPayload(payload)
			// A delta whose predecessor link lies at or below the folded
			// coverage is safe: its dirty set is relative to an older
			// generation vector, i.e. a superset of the changes since the
			// fold. A link beyond the coverage would leave a gap.
			if err != nil || s.snapLSN != e.lsn || s.prevLSN > fold.coverage {
				break
			}
			fold.foldInc(s)
		}
		kept = append(kept, e)
		keptBytes += int64(len(raw))
	}
	if len(kept) == 0 {
		return 0, nil, 0, nil
	}
	if err := fold.install(r, staging); err != nil {
		return 0, nil, 0, err
	}
	return fold.coverage, kept, keptBytes, nil
}

// loadLegacySnapshot loads the pre-chain single snapshot file, if present,
// as a one-element chain.
func (r *Repository) loadLegacySnapshot(staging map[version.ID]*dovEntry) (wal.LSN, []manifestEntry, int64, error) {
	raw, err := os.ReadFile(filepath.Join(r.dir, legacySnapName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, 0, nil
	}
	if err != nil {
		return 0, nil, 0, fmt.Errorf("repo: read snapshot: %w", err)
	}
	payload, err := checkCRC(raw)
	if err != nil {
		// The legacy snapshot was only ever installed by a completed atomic
		// rename, so corruption is an error, not a tear to tolerate.
		return 0, nil, 0, err
	}
	b, err := decodeBasePayload(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	var fold chainFold
	fold.foldBase(b)
	if err := fold.install(r, staging); err != nil {
		return 0, nil, 0, err
	}
	chain := []manifestEntry{{kind: manifestKindBase, file: legacySnapName, lsn: b.snapLSN}}
	return b.snapLSN, chain, int64(len(raw)), nil
}
