package txn

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
type ObjectCache struct {
	dir string // "" = volatile

	mu      sync.Mutex
	epoch   uint64
	entries map[version.ID]*cacheEntry
	clock   uint64
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
	// used is the LRU clock value of the last touch.
	used uint64
	// unsaved marks a supersession mark the entry file does not hold yet;
	// the next Put writes it out (a callback does not rewrite the payload).
	unsaved bool
}

// DefaultCacheEntries bounds an ObjectCache unless MaxEntries overrides it.
const DefaultCacheEntries = 128

// cacheFileMagic tags persisted cache entries.
const cacheFileMagic = 0xCA

// epochFile holds the incarnation counter inside the cache directory.
const epochFile = "EPOCH"

// OpenObjectCache opens (or creates) a cache under dir; "" keeps it
// volatile. Opening bumps the cache epoch — the incarnation counter that
// lets the server retire callback registrations of previous lives and lets
// this cache ignore callbacks addressed to them. Entries persisted by
// earlier incarnations are loaded (and revalidated against their stored
// hash); entries that fail validation are discarded.
func OpenObjectCache(dir string) (*ObjectCache, error) {
	c := &ObjectCache{dir: dir, entries: make(map[version.ID]*cacheEntry)}
	if dir == "" {
		c.epoch = 1
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	prev, ok := readEpoch(filepath.Join(dir, epochFile))
	if !ok && hasEntryFiles(dir) {
		// The epoch marker is gone but entries exist: the incarnation
		// ordering is lost, so flush rather than guess. (Entries would
		// still be hash-revalidated; this just keeps epochs honest.)
		clearEntryFiles(dir)
	}
	c.epoch = prev + 1
	if err := writeEpoch(filepath.Join(dir, epochFile), c.epoch); err != nil {
		return nil, fmt.Errorf("txn: open cache: %w", err)
	}
	c.loadEntries()
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
// back while newer entry files survive, or the next incarnation would reuse
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

func hasEntryFiles(dir string) bool {
	names, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".dov") {
			return true
		}
	}
	return false
}

func clearEntryFiles(dir string) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".dov") {
			os.Remove(filepath.Join(dir, n.Name())) //nolint:errcheck // best effort
		}
	}
}

// entryPath names the persisted file of a version (IDs may contain path
// separators, so the name is a digest of the ID).
func (c *ObjectCache) entryPath(id version.ID) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:12])+".dov")
}

// loadEntries reads persisted entries, dropping any that fail to decode or
// whose payload does not match its stored hash (torn writes are tolerated by
// discarding, never by trusting).
func (c *ObjectCache) loadEntries() {
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if !strings.HasSuffix(n.Name(), ".dov") {
			continue
		}
		path := filepath.Join(c.dir, n.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		e, ok := decodeCacheEntry(data)
		if !ok || !bytes.Equal(catalog.HashEncoded(e.Enc), e.Hash) {
			os.Remove(path) //nolint:errcheck // corrupt entry
			continue
		}
		c.entries[e.Meta.ID] = e
	}
}

func encodeCacheEntry(e *cacheEntry) []byte {
	w := binenc.NewWriter(128 + len(e.Enc))
	w.Byte(cacheFileMagic)
	e.Meta.encodeInto(w)
	w.Blob(e.Hash)
	w.Blob(e.Enc)
	w.Str(string(e.Superseded))
	return w.Bytes()
}

func decodeCacheEntry(data []byte) (*cacheEntry, bool) {
	r := binenc.NewReader(data)
	if r.Byte() != cacheFileMagic {
		return nil, false
	}
	e := &cacheEntry{Meta: decodeDOVMeta(r)}
	e.Hash = r.Blob()
	e.Enc = r.Blob()
	e.Superseded = version.ID(r.Str())
	if r.Err() != nil || e.Meta.ID == "" {
		return nil, false
	}
	return e, true
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
// one) and every entry is flushed from memory and disk.
func (c *ObjectCache) BumpEpoch() uint64 {
	c.mu.Lock()
	c.epoch++
	e := c.epoch
	victims := make([]version.ID, 0, len(c.entries))
	for id := range c.entries {
		victims = append(victims, id)
	}
	c.entries = make(map[version.ID]*cacheEntry)
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		writeEpoch(filepath.Join(dir, epochFile), e) //nolint:errcheck // best effort; restart re-bumps
		for _, id := range victims {
			os.Remove(c.entryPath(id)) //nolint:errcheck // best effort
		}
	}
	return e
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
// persisting it when the cache is durable. A refresh keeps what only
// callbacks know — the supersession mark — and leaves the entry file alone
// when nothing it holds changed (the NotModified refresh of an unchanged
// version). Persistence is best-effort: a failed write leaves a memory-only
// entry (and at worst a corrupt file the next load discards).
func (c *ObjectCache) Put(meta dovMeta, hash, enc []byte) {
	c.mu.Lock()
	c.clock++
	e, ok := c.entries[meta.ID]
	unchanged := ok && !e.unsaved && bytes.Equal(e.Hash, hash) && e.Meta.equal(meta)
	if !ok {
		e = &cacheEntry{}
		c.entries[meta.ID] = e
	}
	e.Meta, e.Hash, e.Enc, e.used = meta, hash, enc, c.clock
	c.evictLocked()
	// Encode while still holding the lock: once the entry is published in
	// c.entries, a concurrent callback (apply) may mutate its Meta.Status or
	// Superseded fields.
	var blob []byte
	if c.dir != "" && !unchanged {
		blob = encodeCacheEntry(e)
		e.unsaved = false
	}
	c.mu.Unlock()
	if blob != nil {
		os.WriteFile(c.entryPath(meta.ID), blob, 0o644) //nolint:errcheck // best effort
	}
}

// evictLocked drops least-recently-used entries over the capacity bound.
func (c *ObjectCache) evictLocked() {
	limit := c.MaxEntries
	if limit <= 0 {
		limit = DefaultCacheEntries
	}
	for len(c.entries) > limit {
		var victim version.ID
		var oldest uint64
		for id, e := range c.entries {
			if victim == "" || e.used < oldest {
				victim, oldest = id, e.used
			}
		}
		delete(c.entries, victim)
		if c.dir != "" {
			os.Remove(c.entryPath(victim)) //nolint:errcheck // best effort
		}
	}
}

// Drop removes id from the cache.
func (c *ObjectCache) Drop(id version.ID) {
	c.mu.Lock()
	_, ok := c.entries[id]
	delete(c.entries, id)
	dir := c.dir
	c.mu.Unlock()
	if ok && dir != "" {
		os.Remove(c.entryPath(id)) //nolint:errcheck // best effort
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
// belong to a cache state that no longer exists.
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
				delete(c.entries, inv.DOV)
				if c.dir != "" {
					os.Remove(c.entryPath(inv.DOV)) //nolint:errcheck // best effort
				}
				continue
			}
			e.Meta.Status = inv.Status
			if c.dir != "" {
				os.WriteFile(c.entryPath(inv.DOV), encodeCacheEntry(e), 0o644) //nolint:errcheck // best effort
			}
		case invSuperseded:
			e.Superseded = inv.By
			e.unsaved = c.dir != ""
		}
	}
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
