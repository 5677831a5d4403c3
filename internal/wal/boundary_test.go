package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestLargePayloadRoundTrip(t *testing.T) {
	l := openTemp(t)
	payload := bytes.Repeat([]byte{0xAB}, 1<<20) // 1 MiB
	if _, err := l.Append(1, "big", payload); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := l.Replay(func(r Record) error { got = r.Payload; return nil }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l := openTemp(t)
	if _, err := l.Append(1, "x", make([]byte, maxRecordSize)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The log stays usable after the rejection.
	if _, err := l.Append(1, "x", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestMaxOwnerLength(t *testing.T) {
	l := openTemp(t)
	owner := strings.Repeat("o", 0xFFFF)
	if _, err := l.Append(1, owner, []byte("p")); err != nil {
		t.Fatalf("max-length owner rejected: %v", err)
	}
	if _, err := l.Append(1, owner+"x", []byte("p")); err == nil {
		t.Fatal("over-length owner accepted")
	}
	var got string
	if err := l.Replay(func(r Record) error { got = r.Owner; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != owner {
		t.Fatalf("owner length after replay = %d", len(got))
	}
}

// TestConcurrentAppendDurableOrder drives many concurrent appenders through
// the group-commit path and checks the core contract: every Append that
// returned got a unique LSN, and replay yields exactly those records in LSN
// order with intact payloads.
func TestConcurrentAppendDurableOrder(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "group.wal"), Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const writers, perWriter = 16, 25
	type appended struct {
		lsn     LSN
		payload string
	}
	results := make([][]appended, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				p := fmt.Sprintf("w%d-r%d", w, i)
				lsn, err := l.Append(7, fmt.Sprintf("writer-%d", w), []byte(p))
				if err != nil {
					t.Errorf("append %s: %v", p, err)
					return
				}
				results[w] = append(results[w], appended{lsn, p})
			}
		}(w)
	}
	wg.Wait()

	var all []appended
	for _, rs := range results {
		all = append(all, rs...)
	}
	if len(all) != writers*perWriter {
		t.Fatalf("appends completed = %d, want %d", len(all), writers*perWriter)
	}
	seen := make(map[LSN]string, len(all))
	for _, a := range all {
		if prev, dup := seen[a.lsn]; dup {
			t.Fatalf("LSN %d assigned to both %q and %q", a.lsn, prev, a.payload)
		}
		seen[a.lsn] = a.payload
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lsn < all[j].lsn })
	var replayed []Record
	if err := l.Replay(func(r Record) error { replayed = append(replayed, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(all) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(all))
	}
	var prev LSN
	for i, r := range replayed {
		if i > 0 && r.LSN <= prev {
			t.Fatalf("replay out of LSN order at %d: %d after %d", i, r.LSN, prev)
		}
		prev = r.LSN
		if r.LSN != all[i].lsn || string(r.Payload) != all[i].payload {
			t.Fatalf("record %d: got (%d, %q), want (%d, %q)", i, r.LSN, r.Payload, all[i].lsn, all[i].payload)
		}
	}
	appends, batches, syncs := l.Stats()
	if appends != writers*perWriter {
		t.Fatalf("appends stat = %d", appends)
	}
	if batches == 0 || syncs != batches {
		t.Fatalf("batches=%d syncs=%d", batches, syncs)
	}
	t.Logf("group commit: %d appends in %d batches (%.1f appends/fsync)",
		appends, batches, float64(appends)/float64(batches))
}

// TestReplayAfterMidBatchCrash simulates a crash in the middle of a batch
// write: records from concurrent appenders land on disk, then the file is cut
// inside the body of one record. Reopening must recover exactly the synced
// prefix — every record before the tear, none after it — and continue
// appending at the truncation point.
func TestReplayAfterMidBatchCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.wal")
	l, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.Append(3, "dop", []byte(fmt.Sprintf("rec-%02d", i))); err != nil {
				t.Errorf("append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Find the record boundaries, then tear the segment inside the body of
	// the third-from-last record (as if the crash hit mid-batch).
	seg := filepath.Join(path, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	for off := int64(0); off < int64(len(data)); {
		bounds = append(bounds, off)
		off += int64(binary.LittleEndian.Uint32(data[off : off+4]))
	}
	if len(bounds) != n {
		t.Fatalf("found %d records on disk, want %d", len(bounds), n)
	}
	tearRecord := n - 3
	tearAt := bounds[tearRecord] + recHeaderSize + 2 // inside the body
	if err := os.Truncate(seg, tearAt); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got []Record
	if err := l2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != tearRecord {
		t.Fatalf("recovered %d records, want the %d before the tear", len(got), tearRecord)
	}
	for i, r := range got {
		if r.LSN != LSN(bounds[i]) {
			t.Fatalf("record %d at LSN %d, want %d", i, r.LSN, bounds[i])
		}
	}
	// The torn tail was truncated; appending resumes at the record boundary.
	lsn, err := l2.Append(3, "dop", []byte("after-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != LSN(bounds[tearRecord]) {
		t.Fatalf("post-crash append at LSN %d, want %d", lsn, bounds[tearRecord])
	}
}

// TestAppendDuringCheckpoint races concurrent appenders against a checkpoint
// of the current tail: records around the checkpoint must land with strictly
// increasing LSNs, nothing appended after the checkpoint may be skipped, and
// everything below the low-water mark must be.
func TestAppendDuringCheckpoint(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "ckpt.wal"), Options{SyncOnAppend: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, "o", []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	mark := LSN(l.Size())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := l.Append(1, "o", []byte("racer")); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}()
	}
	if err := l.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	var prev LSN
	ok := true
	n := 0
	err = l.Replay(func(r Record) error {
		if r.LSN < mark {
			t.Errorf("replayed checkpointed record at LSN %d < %d", r.LSN, mark)
		}
		if n > 0 && r.LSN <= prev {
			ok = false
		}
		prev = r.LSN
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("replay out of LSN order after checkpoint race")
	}
	if n != 80 {
		t.Fatalf("replayed %d records, want the 80 racers above the mark", n)
	}
}

func TestEmptyLogReplay(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "empty.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 || l.Size() != 0 {
		t.Fatalf("empty log: n=%d size=%d", n, l.Size())
	}
}
