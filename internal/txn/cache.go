package txn

import (
	"bufio"
	"bytes"
	"cmp"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/rpc"
	"concord/internal/version"
)

// ObjectCache is the workstation checkout cache (DESIGN.md §4): canonical
// payload encodings of design object versions this workstation has seen,
// keyed by version ID and proved current by content hash. The client-TM uses
// it to answer re-checkouts with a NotModified handshake, to offer delta
// bases for checkout and checkin, and to absorb the server's callback
// invalidations.
//
// The cache is an optimization layer only. Every checkout still goes to the
// server (cooperative reads stay under CM rules), which revalidates the
// offered hash — so a stale, corrupt or crash-resurrected cache can cost
// extra bytes, never correctness. That property is what lets entries persist
// across workstation crashes and invalidations stay best-effort.
//
// A durable cache keeps its entries in one append-only log (cacheLogName)
// that stays open for the cache's life: every persisted change is one record
// appended in one write, and an eviction or drop is a tombstone. The map
// stays the index and holds the bytes; the log only carries them across a
// restart, which replays it with the last record of an ID winning (Bitcask's
// keydir-plus-log layout, Sheehy & Smith 2010). The log is rewritten with
// only the live entries once it outgrows them by compactRatio.
type ObjectCache struct {
	dir string // "" = volatile

	mu      sync.Mutex
	epoch   uint64
	entries map[version.ID]*cacheEntry
	// lru holds every entry, most recently used at the front; clock numbers
	// the touches, and each entry keeps its last one so a reopen restores
	// the order.
	lru   *list.List
	clock uint64
	// log is the open entry log (nil when volatile, closed, or after a failed
	// write); logBytes is its length and liveBytes the bytes of the records
	// the live entries were last written in. w is the reused record buffer.
	log       *os.File
	logBytes  int64
	liveBytes int64
	w         *binenc.Writer
	// MaxEntries bounds the cache; the least recently used entry is evicted
	// (set before concurrent use; DefaultCacheEntries when 0).
	MaxEntries int
}

// cacheEntry is one cached version.
type cacheEntry struct {
	Meta dovMeta
	// Hash is the content hash of Enc.
	Hash []byte
	// Enc is the canonical payload encoding (catalog.EncodeObject output).
	Enc []byte
	// Superseded names the newest version known to derive from this one
	// ("" = tip as far as this workstation knows).
	Superseded version.ID
	// used is the LRU clock value of the last touch; elem is the entry's
	// place in the LRU list.
	used uint64
	elem *list.Element
	// unsaved marks a supersession mark the log does not hold yet; the next
	// Put writes it out (a callback does not rewrite the payload).
	unsaved bool
	// size is the byte length of the record the entry was last written in
	// (0 = not in the log).
	size int64
}

// DefaultCacheEntries bounds an ObjectCache unless MaxEntries overrides it.
const DefaultCacheEntries = 128

const (
	// epochFile holds the incarnation counter inside the cache directory.
	epochFile = "EPOCH"
	// cacheLogName is the entry log inside the cache directory.
	cacheLogName = "entries.log"
	// Record kinds of the entry log: an entry (meta, hash, payload,
	// supersession mark, LRU clock) and a tombstone (an ID).
	cacheRecEntry = 0xCA
	cacheRecTomb  = 0xCB
	// cacheRecHeader is a record's frame: body length and CRC-32C of the
	// body, both little-endian uint32.
	cacheRecHeader = 8
	// The log is compacted once it holds compactRatio times the live bytes
	// and at least compactMinBytes.
	compactRatio    = 4
	compactMinBytes = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenObjectCache opens (or creates) a cache under dir; "" keeps it
// volatile. Opening bumps the cache epoch — the incarnation counter that
// lets the server retire callback registrations of previous lives and lets
// this cache ignore callbacks addressed to them. Entries persisted by
// earlier incarnations are loaded from the log and revalidated against
// their stored hash; a torn or garbled tail is cut off and entries that
// fail validation are discarded. Entry files of the file-per-entry layout
// are deleted unread.
func OpenObjectCache(dir string) (*ObjectCache, error) {
	c := &ObjectCache{dir: dir, entries: make(map[version.ID]*cacheEntry), lru: list.New()}
	if dir == "" {
		c.epoch = 1
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	old, _ := filepath.Glob(filepath.Join(dir, "*.dov"))
	for _, name := range old {
		os.Remove(name) //nolint:errcheck // best effort; the server holds every byte
	}
	path := filepath.Join(dir, cacheLogName)
	prev, ok := readEpoch(filepath.Join(dir, epochFile))
	if !ok {
		// The epoch marker is gone: the incarnation ordering is lost, so
		// flush rather than guess. (Entries would still be
		// hash-revalidated; this just keeps epochs honest.)
		os.Remove(path) //nolint:errcheck // usually absent
	}
	c.epoch = prev + 1
	if err := writeEpoch(filepath.Join(dir, epochFile), c.epoch); err != nil {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	var good int
	c.entries, good = decodeCacheLog(data)
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("txn: open cache: %w", err)
		}
	}
	c.log, c.logBytes, c.w = f, int64(good), binenc.NewWriter(4<<10)
	live := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		live = append(live, e)
	}
	slices.SortFunc(live, func(a, b *cacheEntry) int { return cmp.Compare(a.used, b.used) })
	for _, e := range live {
		e.elem = c.lru.PushFront(e)
		c.clock = max(c.clock, e.used)
		c.liveBytes += e.size
	}
	c.evictLocked()
	c.flushLocked()
	return c, nil
}

func readEpoch(path string) (uint64, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false
	}
	r := binenc.NewReader(data)
	e := r.U64()
	if r.Err() != nil {
		return 0, false
	}
	return e, true
}

// writeEpoch installs the epoch marker tmp/fsync/rename/dir-fsync (the
// repository's marker discipline): a power loss must never roll the epoch
// back while newer log records survive, or the next incarnation would reuse
// its predecessor's epoch and accept callbacks addressed to the dead one.
func writeEpoch(path string, e uint64) error {
	w := binenc.NewWriter(10)
	w.U64(e)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(w.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync() //nolint:errcheck // best effort on filesystems without dir fsync
		dir.Close()
	}
	return nil
}

// decodeCacheLog replays an entry log: the last record of an ID wins and a
// tombstone deletes it. It stops at the first torn or garbled record and
// returns the length of the good prefix before it; of the surviving entries
// only those whose payload matches its stored hash are returned (torn
// writes are tolerated by cutting them off, never by trusting them).
func decodeCacheLog(data []byte) (map[version.ID]*cacheEntry, int) {
	entries := make(map[version.ID]*cacheEntry)
	good := 0
	for good < len(data) {
		rest := data[good:]
		if len(rest) < cacheRecHeader {
			break
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-cacheRecHeader) {
			break
		}
		body := rest[cacheRecHeader : cacheRecHeader+int(n)]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			break
		}
		e, tomb, ok := decodeCacheRecord(body)
		if !ok {
			break
		}
		size := int64(cacheRecHeader + int(n))
		if tomb != "" {
			delete(entries, tomb)
		} else {
			e.size = size
			entries[e.Meta.ID] = e
		}
		good += int(size)
	}
	for id, e := range entries {
		if !bytes.Equal(catalog.HashEncoded(e.Enc), e.Hash) {
			delete(entries, id)
		}
	}
	return entries, good
}

// decodeCacheRecord decodes one record body: an entry, or the ID a
// tombstone deletes.
func decodeCacheRecord(body []byte) (*cacheEntry, version.ID, bool) {
	r := binenc.NewReader(body)
	switch r.Byte() {
	case cacheRecEntry:
		e := &cacheEntry{Meta: decodeDOVMeta(r)}
		e.Hash = r.Blob()
		e.Enc = r.Blob()
		e.Superseded = version.ID(r.Str())
		e.used = r.U64()
		return e, "", r.Err() == nil && r.Remaining() == 0 && e.Meta.ID != ""
	case cacheRecTomb:
		id := version.ID(r.Str())
		return nil, id, r.Err() == nil && r.Remaining() == 0 && id != ""
	}
	return nil, "", false
}

// appendEntryRecord frames e's record onto w and returns its size.
func appendEntryRecord(w *binenc.Writer, e *cacheEntry) int64 {
	start := beginRecord(w)
	w.Byte(cacheRecEntry)
	e.Meta.encodeInto(w)
	w.Blob(e.Hash)
	w.Blob(e.Enc)
	w.Str(string(e.Superseded))
	w.U64(e.used)
	return endRecord(w, start)
}

// appendTombRecord frames a tombstone of id onto w.
func appendTombRecord(w *binenc.Writer, id version.ID) {
	start := beginRecord(w)
	w.Byte(cacheRecTomb)
	w.Str(string(id))
	endRecord(w, start)
}

// beginRecord reserves a record frame on w and returns its offset;
// endRecord fills it in once the body is written and returns the record's
// size.
func beginRecord(w *binenc.Writer) int {
	start := len(w.Bytes())
	var hdr [cacheRecHeader]byte
	w.Raw(hdr[:])
	return start
}

func endRecord(w *binenc.Writer, start int) int64 {
	b := w.Bytes()[start:]
	body := b[cacheRecHeader:]
	binary.LittleEndian.PutUint32(b, uint32(len(body)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(body, castagnoli))
	return int64(len(b))
}

// recordLocked queues e's record for the next flush (durable caches only).
func (c *ObjectCache) recordLocked(e *cacheEntry) {
	if c.log == nil {
		return
	}
	size := appendEntryRecord(c.w, e)
	c.liveBytes += size - e.size
	e.size, e.unsaved = size, false
}

// removeLocked drops e from the cache and queues its tombstone for the next
// flush.
func (c *ObjectCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.Meta.ID)
	c.lru.Remove(e.elem)
	if c.log == nil {
		return
	}
	appendTombRecord(c.w, e.Meta.ID)
	c.liveBytes -= e.size
}

// flushLocked appends the queued records to the log in one write, then
// compacts the log if it has outgrown its live entries. Persistence is
// best-effort: a failed write ends it for this incarnation (the entries
// stay in memory), and the next open cuts whatever half-record it left.
func (c *ObjectCache) flushLocked() {
	if c.log == nil || len(c.w.Bytes()) == 0 {
		return
	}
	buf := c.w.Bytes()
	c.w.Reset()
	if _, err := c.log.Write(buf); err != nil {
		c.log.Close() //nolint:errcheck // already failing
		c.log = nil
		return
	}
	c.logBytes += int64(len(buf))
	if c.logBytes >= compactMinBytes && c.logBytes > compactRatio*c.liveBytes {
		c.compactLocked()
	}
}

// compactLocked rewrites the log with only the live entries, least recently
// used first, into a temporary file renamed over it (the easy case of LFS
// cleaning: every live record is copied out, the old log goes whole).
func (c *ObjectCache) compactLocked() {
	path := filepath.Join(c.dir, cacheLogName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	var total int64
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		c.w.Reset()
		e.size, e.unsaved = appendEntryRecord(c.w, e), false
		total += e.size
		bw.Write(c.w.Bytes()) //nolint:errcheck // Flush reports it
	}
	c.w.Reset()
	if err := bw.Flush(); err != nil || os.Rename(tmp, path) != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best effort
		c.log.Close()  //nolint:errcheck // entry sizes now describe tmp: stop
		c.log = nil
		return
	}
	c.log.Close() //nolint:errcheck // the renamed file replaced it
	c.log, c.logBytes, c.liveBytes = f, total, total
}

// Close releases the entry log; the cache stays usable, memory-only.
func (c *ObjectCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// Epoch returns this cache incarnation's epoch.
func (c *ObjectCache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// BumpEpoch ends this cache incarnation without a restart and returns the new
// epoch. The server orders it (checkoutResp.BumpEpoch) after its notifier
// dropped invalidations destined for this workstation: payloads are always
// hash-revalidated at checkout, but the advisory metadata only callbacks
// refresh — supersession marks, lifecycle status — is now suspect on an
// unknowable subset of entries, so the whole incarnation is retired: the
// epoch advances durably (retiring in-flight callbacks addressed to the old
// one) and every entry is flushed from memory and, once the new epoch is
// written, from the log, which is emptied.
func (c *ObjectCache) BumpEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	c.entries = make(map[version.ID]*cacheEntry)
	c.lru.Init()
	if c.dir != "" {
		writeEpoch(filepath.Join(c.dir, epochFile), c.epoch) //nolint:errcheck // best effort; restart re-bumps
	}
	if c.log != nil {
		if err := c.log.Truncate(0); err != nil {
			c.log.Close() //nolint:errcheck // already failing
			c.log = nil
		}
		c.logBytes, c.liveBytes = 0, 0
	}
	return c.epoch
}

// Len reports the number of cached versions.
func (c *ObjectCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup returns the cached record of id. The returned meta is a copy; hash
// and enc alias cache memory and must not be mutated.
func (c *ObjectCache) Lookup(id version.ID) (meta dovMeta, hash, enc []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return dovMeta{}, nil, nil, false
	}
	c.clock++
	e.used = c.clock
	c.lru.MoveToFront(e.elem)
	return e.Meta, e.Hash, e.Enc, true
}

// SupersededBy reports the newest version known (via callbacks) to derive
// from id, or "" when id is the tip as far as this cache knows.
func (c *ObjectCache) SupersededBy(id version.ID) version.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e.Superseded
	}
	return ""
}

// Status returns the cached lifecycle status of id (callbacks refresh it).
func (c *ObjectCache) Status(id version.ID) (version.Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		return e.Meta.Status, true
	}
	return 0, false
}

// Put inserts the cached record of meta.ID or refreshes it in place,
// persisting it when the cache is durable: one write appends the entry's
// record and the tombstones of the entries it evicts. A refresh keeps what
// only callbacks know — the supersession mark — and appends nothing when
// nothing the entry holds changed (the NotModified refresh of an unchanged
// version).
func (c *ObjectCache) Put(meta dovMeta, hash, enc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	e, ok := c.entries[meta.ID]
	unchanged := ok && !e.unsaved && bytes.Equal(e.Hash, hash) && e.Meta.equal(meta)
	if ok {
		c.lru.MoveToFront(e.elem)
	} else {
		e = &cacheEntry{}
		e.elem = c.lru.PushFront(e)
		c.entries[meta.ID] = e
	}
	e.Meta, e.Hash, e.Enc, e.used = meta, hash, enc, c.clock
	if !unchanged {
		c.recordLocked(e)
	}
	c.evictLocked()
	c.flushLocked()
}

// evictLocked drops least-recently-used entries over the capacity bound,
// queueing a tombstone for each.
func (c *ObjectCache) evictLocked() {
	limit := c.MaxEntries
	if limit <= 0 {
		limit = DefaultCacheEntries
	}
	for len(c.entries) > limit {
		c.removeLocked(c.lru.Back().Value.(*cacheEntry))
	}
}

// Drop removes id from the cache.
func (c *ObjectCache) Drop(id version.ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.removeLocked(e)
		c.flushLocked()
	}
}

// BestBase picks the delta base this workstation should offer when checking
// out want: the version itself when cached; else a cached direct relative in
// the derivation graph — want's parent (an entry the §4.2 callback marked as
// superseded by want) before one of its children — since a neighbour is one
// edit away whatever was read since; else the most recently used cached
// version of the same design area (the likeliest near ancestor of whatever
// the DOP is about to read, and the only rule when want is ""). The server
// verifies the offer by hash, so a poor guess degrades to a full transfer.
func (c *ObjectCache) BestBase(da string, want version.ID) (version.ID, []byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[want]; ok {
		return want, e.Hash, true
	}
	const (
		recent = iota + 1
		child
		parent
	)
	var best *cacheEntry
	bestRank := 0
	for _, e := range c.entries {
		if e.Meta.DA != da {
			continue
		}
		rank := recent
		if want != "" {
			switch {
			case e.Superseded == want:
				rank = parent
			case slices.Contains(e.Meta.Parents, want):
				rank = child
			}
		}
		if rank > bestRank || rank == bestRank && e.used > best.used {
			best, bestRank = e, rank
		}
	}
	if best == nil {
		return "", nil, false
	}
	return best.Meta.ID, best.Hash, true
}

// apply folds one callback message into the cache. Messages addressed to a
// previous incarnation (older epoch) are ignored — their registrations
// belong to a cache state that no longer exists. The message's status
// changes and invalidations reach the log in one write.
func (c *ObjectCache) apply(m invalidateMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Epoch != c.epoch {
		return
	}
	for _, inv := range m.Entries {
		e, ok := c.entries[inv.DOV]
		if !ok {
			continue
		}
		switch inv.Kind {
		case invStatus:
			if inv.Status == version.StatusInvalid {
				c.removeLocked(e)
				continue
			}
			e.Meta.Status = inv.Status
			c.recordLocked(e)
		case invSuperseded:
			e.Superseded = inv.By
			e.unsaved = c.dir != ""
		}
	}
	c.flushLocked()
}

// Handler returns the transport handler serving MethodInvalidate — the
// workstation end of the server's callback channel. Wrap it on the
// workstation's callback address (core does).
func (c *ObjectCache) Handler() rpc.Handler {
	return func(method string, payload []byte) ([]byte, error) {
		if method != MethodInvalidate {
			return nil, fmt.Errorf("txn: cache handler: unknown method %q", method)
		}
		m, err := decodeInvalidate(payload)
		if err != nil {
			return nil, err
		}
		c.apply(m)
		return nil, nil
	}
}
