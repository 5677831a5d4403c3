package repo

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"concord/internal/version"
)

// MVCC read path and sharded write index (DESIGN.md §3.6, §3.7): the
// repository publishes every DOV as an immutable record in a copy-on-write
// index whose shards are swapped with a single atomic pointer store. Readers
// (checkout, Lookup, EncodedObject, Exists, Graph lookup) load the shard
// pointer, look the record up and return it — no repository lock, no copy,
// no decode.
//
// Writers no longer serialize behind one repository mutex: checkins to
// distinct design areas run concurrently under per-DA locks (repo.go), so the
// index itself arbitrates between them. Each shard carries a small writer
// mutex guarding its copy-on-write swap plus a claims set — IDs that a
// checkin has reserved (duplicate-checked and about to be logged) but not yet
// published. Claims make the duplicate check race-free across DAs without a
// global lock, while readers still pay exactly one atomic load and never
// observe a claim: a version exists only once it is published, which happens
// strictly after its WAL reservation (the §3.5/§3.7 ordering invariant).
//
// Immutability contract: a published *version.DOV and its payload are never
// mutated again. Status and Fulfilled updates install a fresh shallow copy
// of the metadata sharing the same body; the superseded record stays valid
// forever for any reader still holding it — multi-version concurrency in its
// simplest form. A body changes only where it lives (resident bytes or a
// chain file location), never what it holds.

// idxShards is the copy-on-write fan-out. A write copies only its shard
// (1/64th of the index on average), so installs stay cheap while readers
// pay exactly one atomic load regardless of the shard count.
const idxShards = 64

// dovEntry is one published version: the metadata record, the version's
// payload body and the graph and checkpoint marks. The repository keeps no
// decoded object — the checkout and delta paths only ever ship the
// encoding, and the rare server-side reader of the object itself (feature
// evaluation, tools) decodes a private copy (Repository.Object).
type dovEntry struct {
	// dov is the immutable metadata record; its Object is always nil.
	dov *version.DOV
	// body holds the payload: shared by every record of the version, so
	// status/fulfilled re-publications never copy or re-read it.
	body *body
	// root marks a version adopted as a graph root (foreign parents
	// allowed). Snapshots must preserve the distinction so rebuilt graphs
	// wire exactly the edges replay would.
	root bool
	// lin names the version's lineage in the repository's table
	// (lineage.go); it fills padding the entry already had.
	lin uint32
	// gen is the shard generation this record was published at — its dirty
	// mark: an incremental checkpoint writes exactly the records newer than
	// the previous cut's generation for their shard (DESIGN.md §3.8). 0 is
	// a record restored from the snapshot chain, clean by definition.
	gen uint64
}

// body is a version's payload (DESIGN.md §3.6). It is resident — the
// canonical encoding, exactly the bytes the version's log record carries —
// until a committed checkpoint holds it in a chain payload file and the
// version has a child in its derivation graph. From then on it is cold: only
// its location remains, and a read fetches the bytes with pread and checks
// them against the location's CRC-32C. Leaves stay resident, and so does
// everything newer than the last checkpoint.
type body struct {
	// at is the current state. Transitions — a location set or moved, the
	// resident bytes dropped — happen only when a checkpoint commits (under
	// ckptMu) or at Open, each as one store of a fresh state.
	at atomic.Pointer[bodyAt]
	// hash memoizes sha256 of the payload on first use, so restart and
	// checkin never pay a hash per version and a cold version answers a
	// NotModified check without a read. Racing readers may compute it
	// twice; the result is deterministic, so the duplicate store is
	// harmless.
	hash atomic.Pointer[[sha256.Size]byte]
}

// bodyAt is one immutable state of a body.
type bodyAt struct {
	// enc is the resident encoding; nil once the body is cold.
	enc []byte
	// loc is where the live snapshot chain holds the payload; zero until
	// the first checkpoint writes it.
	loc bodyLoc
}

// bodyLoc names a payload inside a chain payload file: the open handle, the
// byte range and the CRC-32C of those bytes.
type bodyLoc struct {
	f   *os.File
	off int64
	n   int
	crc uint32
}

// castagnoli is the CRC-32C table of the per-payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// residentBody returns the body of a freshly installed version.
func residentBody(enc []byte) *body {
	b := &body{}
	b.at.Store(&bodyAt{enc: enc})
	return b
}

// bytes returns the payload: the resident encoding itself, or a fresh
// buffer read from the chain file and checked against its CRC. A rebase
// moves every location to the new base before it closes the old files, so a
// read that finds its file closed retries at the new location.
func (b *body) bytes() ([]byte, error) {
	s := b.at.Load()
	for s.enc == nil {
		enc, err := s.loc.read(nil)
		if err == nil {
			return enc, nil
		}
		next := b.at.Load()
		if next == s || !errors.Is(err, os.ErrClosed) {
			return nil, err
		}
		s = next
	}
	return s.enc, nil
}

// read preads the located payload into buf (grown as needed) and checks it.
func (l bodyLoc) read(buf []byte) ([]byte, error) {
	if l.f == nil {
		return nil, errors.New("repo: cold payload has no location")
	}
	buf = slices.Grow(buf[:0], l.n)[:l.n]
	if _, err := l.f.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("repo: read cold payload: %w", err)
	}
	if crc32.Checksum(buf, castagnoli) != l.crc {
		return nil, fmt.Errorf("%w: %d bytes at offset %d of %s", ErrCorrupt, l.n, l.off, filepath.Base(l.f.Name()))
	}
	return buf, nil
}

// contentHash returns the memoized content hash, reading the payload to
// compute it on first use.
func (b *body) contentHash() ([]byte, error) {
	if h := b.hash.Load(); h != nil {
		return h[:], nil
	}
	enc, err := b.bytes()
	if err != nil {
		return nil, err
	}
	return b.hashOf(enc), nil
}

// hashOf returns the memoized content hash, computing it from enc (the
// body's payload) and publishing it on first use.
func (b *body) hashOf(enc []byte) []byte {
	if h := b.hash.Load(); h != nil {
		return h[:]
	}
	h := sha256.Sum256(enc)
	b.hash.Store(&h)
	return h[:]
}

// locate records where a committed checkpoint wrote the payload, keeping
// whatever is resident. Caller holds ckptMu or owns the repository.
func (b *body) locate(loc bodyLoc) {
	b.at.Store(&bodyAt{enc: b.at.Load().enc, loc: loc})
}

// evict drops the resident bytes of a located body. Caller holds ckptMu or
// owns the repository.
func (b *body) evict() {
	if s := b.at.Load(); s.enc != nil && s.loc.f != nil {
		b.at.Store(&bodyAt{loc: s.loc})
	}
}

// idxShard is one shard of the version index: the atomically swapped
// copy-on-write map readers load, plus the writer-side mutex and claims set
// that serialize concurrent publishers hashing onto this shard.
type idxShard struct {
	p atomic.Pointer[map[version.ID]*dovEntry]
	// mu serializes writers of this shard only (copy-on-write swap and the
	// claims set). Readers never take it.
	mu sync.Mutex
	// claims holds IDs reserved by in-flight checkins: duplicate-checked,
	// WAL position about to be (or being) reserved, not yet published.
	// The channel is closed when the claim resolves (publish or unclaim),
	// waking racers blocked in claim.
	claims map[version.ID]chan struct{}
	// gen counts publications into this shard; each published record
	// carries the value it was published at (dovEntry.gen), which is what
	// the incremental checkpointer diffs against (DESIGN.md §3.8). Written
	// under mu by writers (who also hold the quiesce lock shared); read by
	// the snapshot cut, which holds the quiesce lock exclusively, so the
	// RWMutex ordering makes the plain read race-free.
	gen uint64
}

// dovIndex is the sharded copy-on-write version index.
type dovIndex struct {
	shards [idxShards]idxShard
}

// shardOf hashes an ID onto its shard (FNV-1a; allocation-free).
func shardOf(id version.ID) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return h % idxShards
}

// init publishes empty shard maps so readers never see a nil pointer.
func (x *dovIndex) init() {
	for i := range x.shards {
		m := make(map[version.ID]*dovEntry)
		x.shards[i].p.Store(&m)
		x.shards[i].claims = make(map[version.ID]chan struct{})
	}
}

// get is the lock-free read: one atomic load, one map lookup, zero
// allocations. Claimed-but-unpublished IDs are invisible here by design —
// a version that has not reserved its log position must not be observable
// (and in particular must not satisfy another checkin's parent check).
func (x *dovIndex) get(id version.ID) (*dovEntry, bool) {
	m := x.shards[shardOf(id)].p.Load()
	e, ok := (*m)[id]
	return e, ok
}

// claim reserves an ID for an in-flight checkin — the race-free duplicate
// check of the sharded write path. It returns false only when the ID is
// already *published*; while a concurrent checkin merely holds a claim the
// outcome is still open (that checkin may abort before logging anything),
// so claim waits for the racing claim to resolve and then re-decides —
// reporting a duplicate for a version that never got installed would let a
// caller (e.g. the server-TM's idempotent 2PC commit) mistake an aborted
// racer for a durable install. Claims resolve within microseconds (reserve,
// insert, publish), and a waiter holds no shard mutex while blocked, so the
// wait cannot deadlock against the resolver. A successful claim must be
// resolved by publish (success) or unclaim (abort).
func (x *dovIndex) claim(id version.ID) bool {
	s := &x.shards[shardOf(id)]
	for {
		s.mu.Lock()
		if _, dup := (*s.p.Load())[id]; dup {
			s.mu.Unlock()
			return false
		}
		pending, inFlight := s.claims[id]
		if !inFlight {
			s.claims[id] = make(chan struct{})
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		<-pending
	}
}

// unclaim releases a claim whose checkin aborted before publication, waking
// any racer parked in claim.
func (x *dovIndex) unclaim(id version.ID) {
	s := &x.shards[shardOf(id)]
	s.mu.Lock()
	if ch, ok := s.claims[id]; ok {
		close(ch)
		delete(s.claims, id)
	}
	s.mu.Unlock()
}

// put publishes an entry by swapping a copied shard, consuming the caller's
// claim if one is held. Concurrent writers of the same shard serialize on the
// shard mutex; writers of other shards proceed in parallel.
//
// Cost note: a write copies its shard — n/idxShards entries on average — so
// install cost grows with the number of versions ever stored: every version
// keeps its metadata record in the index, even once its payload is cold.
// That is microseconds against a WAL fsync at the sizes measured so far; if
// writes ever dominate at much larger version counts, swap the shard map for
// a persistent (HAMT-style) structure behind the same surface.
func (x *dovIndex) put(id version.ID, e *dovEntry) {
	s := &x.shards[shardOf(id)]
	s.mu.Lock()
	if ch, ok := s.claims[id]; ok {
		close(ch)
		delete(s.claims, id)
	}
	old := s.p.Load()
	next := make(map[version.ID]*dovEntry, len(*old)+1)
	for k, v := range *old {
		next[k] = v
	}
	s.gen++
	e.gen = s.gen
	next[id] = e
	s.p.Store(&next)
	s.mu.Unlock()
}

// count returns the number of published versions (lock-free).
func (x *dovIndex) count() int {
	n := 0
	for i := range x.shards {
		n += len(*x.shards[i].p.Load())
	}
	return n
}

// each invokes fn for every published entry. The iteration is per-shard
// consistent only; callers needing a global cut (snapshot encoding, digest)
// must have quiesced writers first (repo.go holds the quiesce lock
// exclusively there).
func (x *dovIndex) each(fn func(version.ID, *dovEntry)) {
	for i := range x.shards {
		for id, e := range *x.shards[i].p.Load() {
			fn(id, e)
		}
	}
}

// rebuild bulk-publishes the snapshot chain's versions in one pass per shard
// — a chain holds thousands of versions, and per-record copy-on-write would
// cost O(n²/shards). The records carry generation 0 and the shards stay at
// generation 0: clean until the log suffix publishes on top of them. Caller
// must own the repository exclusively (as at Open).
func (x *dovIndex) rebuild(entries map[version.ID]*dovEntry) {
	maps := make([]map[version.ID]*dovEntry, idxShards)
	for i := range maps {
		maps[i] = make(map[version.ID]*dovEntry)
	}
	for id, e := range entries {
		maps[shardOf(id)][id] = e
	}
	for i := range maps {
		m := maps[i]
		x.shards[i].p.Store(&m)
	}
}
