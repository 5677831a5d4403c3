package repo

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
// it covers. An entry's kind, not its payload, gives the element its role:
// every payload this build writes has the same layout (snapshot.go), and the
// first chain entry is the base. A rebase atomically rewrites the whole
// manifest to a single base entry (tmp + fsync + rename + dir fsync); a
// delta appends one fsynced frame. Recovery reads the longest valid
// prefix — a torn append (crash mid-frame, or garbage at the tail) simply
// shortens the chain, and the WAL mark ordering (mark moves only after the
// covering entry is durable) guarantees the shortened chain plus the
// retained log suffix still reconstructs everything.
const (
	manifestName    = "snapmanifest"
	manifestTmpName = "snapmanifest.tmp"
)

// errPreChainSnapshot refuses a directory that holds the single "snapshot"
// file of the layout before the chain and no manifest. This build does not
// read that file, and replaying the log alone would drop what it covers.
var errPreChainSnapshot = errors.New(`repo: directory holds a pre-chain "snapshot" file and no manifest (open and checkpoint it with an older build, which migrates it to the chain, or remove it)`)

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
	// f is the open payload file of a chain element the repository loaded
	// or wrote — what cold versions' locations read from; nil in parsed
	// entries.
	f *os.File
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
// frame on — a torn append, appended garbage — is ignored; valid reports
// the length of the prefix that was not.
func parseManifest(data []byte) (chain []manifestEntry, epoch uint64, valid int) {
	for len(data)-valid >= 8 {
		rest := data[valid:]
		n := binary.LittleEndian.Uint32(rest[:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || uint64(n) > uint64(len(rest)-8) {
			break
		}
		p := rest[8 : 8+n]
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
			epoch = max(epoch, uint64(e.lsn))
		} else {
			if len(chain) == 0 {
				if e.kind != manifestKindBase {
					break
				}
			} else if e.kind != manifestKindInc || e.lsn <= chain[len(chain)-1].lsn {
				break
			}
			chain = append(chain, e)
		}
		valid += 8 + int(n)
	}
	return chain, epoch, valid
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
// checkpoint). The manifest must already exist — an append only follows a
// full checkpoint of this process or a chain Open loaded whole.
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

// snapPayload is one decoded chain element, in the layout every checkpoint
// writes (CCINCR01) or in the base layout of older builds (CCSNAP01).
type snapPayload struct {
	// f is the open payload file the element was read from (openSnapFile).
	f       *os.File
	snapLSN wal.LSN
	// prevLSN is a delta's predecessor link: the coverage of the chain
	// element it was cut after; 0 for a base.
	prevLSN wal.LSN
	seq     uint64
	daNames []string
	// meta is the whole metadata store; nil for a delta cut while the store
	// was clean.
	meta map[string][]byte
	recs []chainRec
}

// chainRec is one record of a chain payload: the decoded record, whose
// Object the loader drops once it has seen a child of the version in the
// same payload, where the payload file holds the payload, and the buffer the
// record was read into (nil once dropped).
type chainRec struct {
	dovRecord
	loc bodyLoc
	buf []byte
}

// streamReader is binenc.Reader's counterpart over a stream, with the same
// sticky error. Every length is checked against the payload bytes left, so
// a corrupt prefix cannot make it allocate more than the file holds, and
// every byte slice it returns is a fresh buffer the caller may keep.
type streamReader struct {
	br   *bufio.Reader
	lr   *io.LimitedReader // the payload, trailer excluded, beneath br
	size int64             // payload bytes, trailer excluded
	err  error
}

func (s *streamReader) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// left reports the payload bytes not yet consumed.
func (s *streamReader) left() uint64 { return uint64(s.lr.N) + uint64(s.br.Buffered()) }

// pos reports the file offset of the next byte to be consumed.
func (s *streamReader) pos() int64 { return s.size - int64(s.left()) }

func (s *streamReader) u64() uint64 {
	if s.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(err)
	}
	return v
}

func (s *streamReader) bool() bool {
	if s.err != nil {
		return false
	}
	b, err := s.br.ReadByte()
	if err != nil {
		s.fail(err)
	}
	return b != 0
}

func (s *streamReader) bytes(n uint64) []byte { return s.bytesInto(nil, n) }

// bytesInto is bytes reading into buf instead when it is large enough.
func (s *streamReader) bytesInto(buf []byte, n uint64) []byte {
	if s.err != nil {
		return nil
	}
	if n > s.left() {
		s.fail(binenc.ErrCorrupt)
		return nil
	}
	b := buf[:0]
	if uint64(cap(b)) >= n {
		b = b[:n]
	} else {
		b = make([]byte, n)
	}
	if _, err := io.ReadFull(s.br, b); err != nil {
		s.fail(err)
		return nil
	}
	return b
}

func (s *streamReader) str() string { return string(s.bytes(s.u64())) }

func (s *streamReader) strs() []string {
	n := s.u64()
	if n > s.left() { // each element needs at least one byte
		s.fail(binenc.ErrCorrupt)
		return nil
	}
	var out []string
	for i := uint64(0); i < n && s.err == nil; i++ {
		out = append(out, s.str())
	}
	return out
}

// records appends a count-prefixed record list to dst. Each record is read
// into a buffer of its own, which its Object aliases: that buffer becomes
// the version's resident encoding unless the version turns out to have a
// child. Each payload is located and checked to decode, as replay does, as
// it streams past. A parent read earlier in the same list
// drops its Object as soon as its child arrives, and its buffer takes the
// next record, so a base in Seq order allocates little more than its
// leaves. (Children found elsewhere — a later chain element, a log record —
// are settled once Open has seen everything.)
func (s *streamReader) records(dst []chainRec) []chainRec {
	n := s.u64()
	at := make(map[version.ID]int)
	var spare [][]byte
	for i := uint64(0); i < n && s.err == nil; i++ {
		size := s.u64()
		start := s.pos()
		var buf []byte
		if k := len(spare); k > 0 {
			buf, spare = spare[k-1], spare[:k-1]
		}
		b := s.bytesInto(buf, size)
		if s.err != nil {
			break
		}
		dr, objOff, err := decodeDOVRecord(b)
		if err == nil {
			err = catalog.CheckEncoded(dr.Object)
		}
		if err != nil {
			s.fail(fmt.Errorf("DOV record: %w", err))
			break
		}
		if !dr.Root {
			for _, p := range dr.Parents {
				if j, ok := at[p]; ok && dst[j].DA == dr.DA && dst[j].buf != nil {
					spare = append(spare, dst[j].buf)
					dst[j].Object, dst[j].buf = nil, nil
				}
			}
		}
		at[dr.ID] = len(dst)
		loc := bodyLoc{off: start + int64(objOff), n: len(dr.Object), crc: crc32.Checksum(dr.Object, castagnoli)}
		dst = append(dst, chainRec{dr, loc, b})
	}
	return dst
}

func (s *streamReader) meta() map[string][]byte {
	n := s.u64()
	m := make(map[string][]byte)
	for i := uint64(0); i < n && s.err == nil; i++ {
		k := s.str()
		m[k] = s.bytes(s.u64())
	}
	return m
}

// readPayload decodes one chain payload of size bytes (4-byte CRC trailer
// included) as it streams in from src, and accepts it only if the trailer
// matches every byte before it.
func readPayload(src io.Reader, size int64) (*snapPayload, error) {
	if size < 4 {
		return nil, errors.New("repo: snapshot payload too short")
	}
	lr := &io.LimitedReader{R: src, N: size - 4}
	crc := crc32.NewIEEE()
	s := &streamReader{br: bufio.NewReaderSize(io.TeeReader(lr, crc), 256<<10), lr: lr, size: size - 4}
	p := &snapPayload{}
	switch s.str() {
	case snapMagic: // read only: a base an older build wrote
		p.snapLSN = wal.LSN(s.u64())
		p.seq = s.u64()
		p.daNames = s.strs()
		p.recs = s.records(nil)
		p.meta = s.meta()
	case incMagic:
		p.snapLSN = wal.LSN(s.u64())
		p.prevLSN = wal.LSN(s.u64())
		p.seq = s.u64()
		p.daNames = s.strs()
		if s.bool() {
			p.meta = s.meta()
		}
		// This build writes one record group; older builds wrote one per
		// dirty index shard. The loader merges records by ID, so the
		// grouping does not matter.
		nGroups := s.u64()
		for i := uint64(0); i < nGroups && s.err == nil; i++ {
			if idx := s.u64(); idx >= idxShards {
				return nil, fmt.Errorf("repo: delta shard index %d out of range", idx)
			}
			p.recs = s.records(p.recs)
		}
	default:
		if s.err == nil {
			return nil, errors.New("repo: bad snapshot magic")
		}
	}
	if s.err != nil {
		return nil, fmt.Errorf("repo: decode snapshot: %w", s.err)
	}
	// The CRC covers the whole payload, bytes the decoder did not need
	// included.
	if _, err := io.Copy(io.Discard, s.br); err != nil {
		return nil, fmt.Errorf("repo: read snapshot: %w", err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(src, trailer[:]); err != nil {
		return nil, fmt.Errorf("repo: read snapshot trailer: %w", err)
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, errors.New("repo: snapshot checksum mismatch")
	}
	return p, nil
}

// openSnapFile streams one chain payload file through readPayload and
// returns it with the file's size. The file stays open as the payload's f,
// which every record's location names; on error it is closed.
func openSnapFile(path string) (*snapPayload, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("repo: read snapshot: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("repo: read snapshot: %w", err)
	}
	p, err := readPayload(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	p.f = f
	for i := range p.recs {
		p.recs[i].loc.f = f
	}
	return p, fi.Size(), nil
}

// chainFold accumulates the effect of a manifest chain. A base resets it;
// every element then merges its records by version ID — a later record of
// a version supersedes the earlier one, and since the repository never
// deletes a version no tombstones are needed. A delta that carries each
// dirty shard whole is a superset of the per-record one, so merging it
// gives the same state.
type chainFold struct {
	coverage wal.LSN
	seq      uint64
	daNames  []string
	meta     map[string][]byte
	recs     map[version.ID]chainRec
}

// fold layers one chain element on top of the fold; a base starts it over.
func (f *chainFold) fold(p *snapPayload, base bool) {
	if base {
		f.recs = make(map[version.ID]chainRec, len(p.recs))
	}
	f.coverage = p.snapLSN
	f.seq = p.seq
	f.daNames = p.daNames
	if p.meta != nil {
		f.meta = p.meta
	}
	for _, dr := range p.recs {
		f.recs[dr.ID] = dr
	}
}

// install materializes the folded state into the recovering repository and
// publishes it: DA graphs, the index (built in one bulk pass, with records
// inserted in Seq order so every derivation edge and every lineage comes out
// exactly as replay would build them), metadata and the sequence counter.
// Each version's body is located in the chain, and resident in the record's
// own buffer unless the loader already dropped it. Chain-loaded records
// carry generation 0.
func (f *chainFold) install(r *Repository) error {
	r.seq.Store(f.seq)
	for _, da := range f.daNames {
		if _, ok := r.das[da]; !ok {
			r.das[da] = &daState{g: version.NewGraph(da)}
		}
	}
	recs := make([]chainRec, 0, len(f.recs))
	for _, cr := range f.recs {
		recs = append(recs, cr)
	}
	// Seq order: parents always precede children (a parent's Seq is
	// allocated first).
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	staging := make(map[version.ID]*dovEntry, len(recs))
	staged := func(id version.ID) (*dovEntry, bool) {
		e, ok := staging[id]
		return e, ok
	}
	for i := range recs {
		dr := &recs[i].dovRecord
		v := dr.meta()
		st, ok := r.das[dr.DA]
		if !ok {
			st = &daState{g: version.NewGraph(dr.DA)}
			r.das[dr.DA] = st
		}
		if err := st.insert(v, dr.Root); err != nil {
			return err
		}
		b := &body{}
		b.at.Store(&bodyAt{enc: dr.Object, loc: recs[i].loc})
		staging[v.ID] = &dovEntry{dov: v, body: b, root: dr.Root, lin: r.lin.of(v.Parents, staged)}
	}
	r.idx.rebuild(staging)
	r.publishDAs()
	for k, v := range f.meta {
		r.meta[k] = v
	}
	return nil
}

// loadSnapshotChain restores and publishes repository state from the durable
// snapshot chain and records the chain it loaded, its bytes and the log
// position it covers. Resolution order:
//
//   - manifest present: fold its longest loadable prefix (parse stops at a
//     torn tail; loading stops at a missing/corrupt payload file or a delta
//     whose predecessor link skips ahead of the folded coverage — the
//     shortened chain plus the WAL suffix is still complete as long as the
//     WAL mark does not exceed the surviving coverage, which Open checks).
//   - no manifest, but the single "snapshot" file of the layout before the
//     chain: refused with errPreChainSnapshot, nothing touched. Replaying
//     the log from LSN 0 instead would drop the prefix that file covers.
//   - neither: full replay from LSN 0.
//
// Only a chain that is the whole manifest leaves the next checkpoint free
// to append a delta; after a shortened one it rebases, rewriting the
// manifest without the unloadable tail.
func (r *Repository) loadSnapshotChain() error {
	data, err := os.ReadFile(filepath.Join(r.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		switch _, err := os.Lstat(filepath.Join(r.dir, "snapshot")); {
		case err == nil:
			return fmt.Errorf("%w: %s", errPreChainSnapshot, r.dir)
		case !errors.Is(err, os.ErrNotExist):
			return fmt.Errorf("repo: stat pre-chain snapshot: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("repo: read manifest: %w", err)
	}
	os.Remove(filepath.Join(r.dir, manifestTmpName)) //nolint:errcheck // stray tmp from a crashed rebase
	entries, epoch, valid := parseManifest(data)
	r.epoch.Store(epoch)
	var fold chainFold
	for _, e := range entries {
		p, size, err := openSnapFile(filepath.Join(r.dir, e.file))
		if err != nil {
			break
		}
		// A delta whose predecessor link lies at or below the folded
		// coverage is safe: its records are those changed since an older
		// cut, a superset of the changes since the fold. A link beyond the
		// coverage would leave a gap.
		base := e.kind == manifestKindBase
		if p.snapLSN != e.lsn || !base && p.prevLSN > fold.coverage {
			p.f.Close()
			break
		}
		fold.fold(p, base)
		e.f = p.f
		r.chain = append(r.chain, e)
		r.chainBytes += size
		if base {
			r.baseBytes = size
		}
	}
	if len(r.chain) == 0 {
		return nil
	}
	if err := fold.install(r); err != nil {
		return err
	}
	r.snapLSN = fold.coverage
	if len(r.chain) == len(entries) && valid == len(data) {
		// Chain-loaded records carry generation 0, so diffing against the
		// zero vector makes the first checkpoint a delta of what the log
		// suffix replays on top of them.
		r.lastGens = &ckptGens{}
	}
	return nil
}
