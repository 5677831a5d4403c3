package txn

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
)

// putPayload caches a small version of da1 whose payload is derived from id
// and seed, with a hash that verifies.
func putPayload(c *ObjectCache, id version.ID, seed int, parents ...version.ID) {
	enc := []byte(fmt.Sprintf("payload of %s #%d", id, seed))
	meta := dovMeta{ID: id, DOT: "floorplan", DA: "da1", Parents: parents, Status: version.StatusWorking}
	c.Put(meta, catalog.HashEncoded(enc), enc)
}

// lruState lists what a cache holds — ID, hash, metadata, supersession mark
// and payload — least recently used first.
func lruState(c *ObjectCache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		live = append(live, e)
	}
	slices.SortFunc(live, func(a, b *cacheEntry) int { return int(a.used) - int(b.used) })
	var out []string
	for _, e := range live {
		out = append(out, fmt.Sprintf("%s hash=%x meta=%+v superseded=%q enc=%q", e.Meta.ID, e.Hash[:4], e.Meta, e.Superseded, e.Enc))
	}
	return out
}

// reopen closes c and opens its directory again.
func reopen(t *testing.T, c *ObjectCache) *ObjectCache {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := OpenObjectCache(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { next.Close() })
	return next
}

// TestCacheLogReopenEquivalence drives a durable cache through every change
// the log records — puts, evictions, a drop, a status callback, an
// invalidation, a supersession mark carried out by a refresh, an epoch bump —
// and checks that reopening the directory gives back the same entries in the
// same LRU order.
func TestCacheLogReopenEquivalence(t *testing.T) {
	c, err := OpenObjectCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.MaxEntries = 4
	for i, id := range []version.ID{"a", "b", "c", "d", "e", "f", "g"} {
		putPayload(c, id, i)
	}
	putPayload(c, "e", 40) // a changed payload under the same ID
	c.Drop("d")
	putPayload(c, "h", 7, "g")
	c.apply(invalidateMsg{Epoch: c.Epoch(), Entries: []invalidation{
		{DOV: "f", Kind: invStatus, Status: version.StatusPropagated},
		{DOV: "h", Kind: invStatus, Status: version.StatusInvalid},
		{DOV: "g", Kind: invSuperseded, By: "h"},
	}})
	putPayload(c, "g", 6) // the NotModified refresh that writes g's mark out
	putPayload(c, "i", 8)
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	want := lruState(c)
	if got := strings.Join(want, "\n"); !strings.Contains(got, `superseded="h"`) || !strings.Contains(got, "Status:propagated") {
		t.Fatalf("the sequence did not leave a mark and a promoted status:\n%s", got)
	}

	c = reopen(t, c)
	c.MaxEntries = 4
	if got := lruState(c); !slices.Equal(got, want) {
		t.Fatalf("reopened cache:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The reopened LRU order decides the next eviction: f, promoted by a
	// callback but last put before e's change, is the oldest.
	putPayload(c, "j", 9)
	if _, _, _, ok := c.Lookup("f"); ok || c.Len() != 4 {
		t.Fatalf("the least recently used entry f survived an eviction after reopen (%d entries)", c.Len())
	}

	epoch := c.BumpEpoch()
	putPayload(c, "k", 10)
	putPayload(c, "l", 11, "k")
	want = lruState(c)
	c = reopen(t, c)
	if got := lruState(c); !slices.Equal(got, want) {
		t.Fatalf("reopened after an epoch bump:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := c.Epoch(); got != epoch+1 {
		t.Fatalf("epoch after reopen = %d, want %d", got, epoch+1)
	}
}

// TestCacheLogTornTail cuts the last record of the log at every byte offset:
// each open keeps every earlier record, truncates the log back to them, and
// appends after them again.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenObjectCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	putPayload(c, "a", 1)
	putPayload(c, "b", 2)
	head := c.logBytes
	putPayload(c, "c", 3)
	full := lruState(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(log []byte, want []string, size int64) {
		t.Helper()
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenObjectCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if got := lruState(c); !slices.Equal(got, want) {
			t.Fatalf("log of %d bytes reopened as %q, want %q", len(log), got, want)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != size {
			t.Fatalf("log of %d bytes left at %v bytes (%v), want %d", len(log), fi.Size(), err, size)
		}
	}
	for cut := head; cut < int64(len(data)); cut++ {
		check(data[:cut], full[:2], head)
	}
	check(data, full, int64(len(data)))
	// A garbled last record is a torn one too.
	garbled := slices.Clone(data)
	garbled[len(garbled)-2] ^= 0x40
	check(garbled, full[:2], head)

	// The next write lands right after the good prefix.
	c, err = OpenObjectCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	putPayload(c, "d", 4)
	want := append(full[:2:2], lruState(c)[2])
	c = reopen(t, c)
	if got := lruState(c); !slices.Equal(got, want) {
		t.Fatalf("after a write behind the cut: %q, want %q", got, want)
	}
}

// TestCacheLogStaysCompact: 10k puts into a 128-entry cache write ~40 MiB of
// records, yet the log never holds more than the compaction multiple of
// what is live.
func TestCacheLogStaysCompact(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenObjectCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := strings.Repeat("x", 4<<10)
	for i := 0; i < 10_000; i++ {
		enc := []byte(fmt.Sprintf("%d %s", i, payload))
		c.Put(dovMeta{ID: version.ID(fmt.Sprintf("v%05d", i)), DA: "da1"}, catalog.HashEncoded(enc), enc)
		if c.logBytes > compactRatio*c.liveBytes && c.logBytes >= compactMinBytes {
			t.Fatalf("after put %d the log holds %d bytes for %d live", i, c.logBytes, c.liveBytes)
		}
	}
	if c.Len() != DefaultCacheEntries {
		t.Fatalf("cache holds %d entries", c.Len())
	}
	fi, err := os.Stat(filepath.Join(dir, cacheLogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != c.logBytes {
		t.Fatalf("log file is %d bytes, the cache counts %d", fi.Size(), c.logBytes)
	}
	want := lruState(c)
	c = reopen(t, c)
	if got := lruState(c); !slices.Equal(got, want) {
		t.Fatalf("reopened compacted cache holds %d entries, want %d in the same order", len(got), len(want))
	}
}

// TestCacheRemovesEntryFiles: the file-per-entry layout is not read; its
// files are deleted when the cache opens, and the entry log starts empty.
func TestCacheRemovesEntryFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"0a1b2c.dov", "3d4e5f.dov"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte{0xCA, 1, 2, 3}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeEpoch(filepath.Join(dir, epochFile), 7); err != nil {
		t.Fatal(err)
	}
	c, err := OpenObjectCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.dov")); len(left) != 0 {
		t.Fatalf("entry files left after open: %v", left)
	}
	if c.Len() != 0 || c.Epoch() != 8 {
		t.Fatalf("opened with %d entries at epoch %d, want 0 at 8", c.Len(), c.Epoch())
	}
}

// TestCacheLogConcurrentWriters: puts, status callbacks, invalidations and
// drops from several goroutines, with evictions and compactions among them,
// leave a log that reopens to exactly what the cache held.
func TestCacheLogConcurrentWriters(t *testing.T) {
	c, err := OpenObjectCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.MaxEntries = 16
	payload := strings.Repeat("y", 8<<10)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := version.ID(fmt.Sprintf("v%d", (g*7+i)%40))
				enc := []byte(fmt.Sprintf("%s %d %d %s", id, g, i, payload))
				c.Put(dovMeta{ID: id, DA: "da1"}, catalog.HashEncoded(enc), enc)
				switch i % 10 {
				case 3:
					c.apply(invalidateMsg{Epoch: c.Epoch(), Entries: []invalidation{
						{DOV: id, Kind: invStatus, Status: version.StatusPropagated},
						{DOV: version.ID(fmt.Sprintf("v%d", (i+1)%40)), Kind: invStatus, Status: version.StatusInvalid},
					}})
				case 7:
					c.Drop(version.ID(fmt.Sprintf("v%d", (i+5)%40)))
				}
			}
		}()
	}
	wg.Wait()
	want := lruState(c)
	c = reopen(t, c)
	if got := lruState(c); !slices.Equal(got, want) {
		t.Fatalf("reopened %d entries, want the %d the cache held in the same order", len(got), len(want))
	}
}
