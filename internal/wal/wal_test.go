package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T) *Log {
	t.Helper()
	l, err := Open(filepath.Join(t.TempDir(), "test.wal"), Options{SyncOnAppend: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l := openTemp(t)
	want := []Record{
		{Type: 1, Owner: "dop-1", Payload: []byte("hello")},
		{Type: 2, Owner: "da-7", Payload: []byte{}},
		{Type: 3, Owner: "", Payload: []byte("no owner")},
	}
	for i := range want {
		lsn, err := l.Append(want[i].Type, want[i].Owner, want[i].Payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[i].LSN = lsn
	}
	var got []Record
	if err := l.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Type != want[i].Type ||
			got[i].Owner != want[i].Owner || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReplayStopsAtCallbackError: the first error the callback returns ends
// Replay and is returned, nothing past the failing record is delivered, and
// the payloads delivered before it stay intact after the scan has read on
// (callers keep them). The log spans several segments, so the failure lands
// past a segment boundary.
func TestReplayStopsAtCallbackError(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fill(t, l, 300, "r")
	if len(l.starts) < 3 {
		t.Fatalf("log spans %d segments, want several", len(l.starts))
	}
	boom := errors.New("boom")
	var kept [][]byte
	err = l.Replay(func(r Record) error {
		if len(kept) == 200 {
			return boom
		}
		kept = append(kept, r.Payload)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replay = %v, want the callback's error", err)
	}
	if len(kept) != 200 {
		t.Fatalf("callback saw %d records before failing, want 200", len(kept))
	}
	for i, p := range kept {
		if want := fmt.Sprintf("r-%04d-padpadpadpadpad", i); string(p) != want {
			t.Fatalf("kept payload %d = %q, want %q", i, p, want)
		}
	}
}

func TestLSNMonotonic(t *testing.T) {
	l := openTemp(t)
	var prev LSN
	for i := 0; i < 100; i++ {
		lsn, err := l.Append(1, "x", []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && lsn <= prev {
			t.Fatalf("LSN not increasing: %d after %d", lsn, prev)
		}
		prev = lsn
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.wal")
	l, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Append(2, "b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	var n int
	var last Record
	if err := l2.Replay(func(r Record) error { n++; last = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records after reopen, want 2", n)
	}
	if string(last.Payload) != "two" || last.Type != 2 {
		t.Fatalf("last record = %+v", last)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.wal")
	l, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, "a", []byte(fmt.Sprintf("rec%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Size()
	l.Close()

	// Simulate a torn write: append garbage bytes to the active segment.
	f, err := os.OpenFile(filepath.Join(path, segName(0)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatalf("Open after torn tail: %v", err)
	}
	defer l2.Close()
	if l2.Size() != size {
		t.Fatalf("Size after reopen = %d, want %d (torn tail removed)", l2.Size(), size)
	}
	var n int
	if err := l2.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d, want 3", n)
	}
}

func TestCorruptMiddleStopsReplayAtCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.wal")
	l, err := Open(path, Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, "a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(1, "a", []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a payload byte in the second record (segment 0 starts at LSN 0,
	// so the file offset equals the LSN).
	seg := filepath.Join(path, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[int(lsn2)+recHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var payloads []string
	if err := l2.Replay(func(r Record) error { payloads = append(payloads, string(r.Payload)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || payloads[0] != "first" {
		t.Fatalf("replay after corruption = %v, want [first]", payloads)
	}
}

func TestCheckpointSkipsCoveredRecords(t *testing.T) {
	l := openTemp(t)
	if _, err := l.Append(1, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(LSN(l.Size())); err != nil {
		t.Fatal(err)
	}
	if got := l.LowWater(); got != LSN(l.Size()) {
		t.Fatalf("LowWater = %d, want %d", got, l.Size())
	}
	var n int
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records after checkpoint", n)
	}
	lsn, err := l.Append(2, "b", []byte("y"))
	if err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	if lsn < l.LowWater() {
		t.Fatalf("post-checkpoint append at LSN %d below low-water %d", lsn, l.LowWater())
	}
	n = 0
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want the 1 after the checkpoint", n)
	}
}

func TestClosedErrors(t *testing.T) {
	l := openTemp(t)
	l.Close()
	if _, err := l.Append(1, "a", nil); err != ErrClosed {
		t.Fatalf("Append on closed = %v, want ErrClosed", err)
	}
	if err := l.Replay(func(Record) error { return nil }); err != ErrClosed {
		t.Fatalf("Replay on closed = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "c.wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const g, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := l.Append(RecordType(id), fmt.Sprintf("g%d", id), []byte("p")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	var n int
	if err := l.Replay(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != g*per {
		t.Fatalf("replayed %d, want %d", n, g*per)
	}
}

// Property: any sequence of (type, owner, payload) appends replays back
// identically, in order.
func TestQuickRoundTrip(t *testing.T) {
	prop := func(types []uint16, owners []string, payloads [][]byte) bool {
		n := len(types)
		if len(owners) < n {
			n = len(owners)
		}
		if len(payloads) < n {
			n = len(payloads)
		}
		if n == 0 {
			return true
		}
		dir, err := os.MkdirTemp("", "walquick")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := Open(filepath.Join(dir, "q.wal"), Options{})
		if err != nil {
			return false
		}
		defer l.Close()
		for i := 0; i < n; i++ {
			if _, err := l.Append(RecordType(types[i]), owners[i], payloads[i]); err != nil {
				return false
			}
		}
		i := 0
		ok := true
		err = l.Replay(func(r Record) error {
			if i >= n || r.Type != RecordType(types[i]) || r.Owner != owners[i] ||
				!bytes.Equal(r.Payload, payloads[i]) {
				ok = false
			}
			i++
			return nil
		})
		return err == nil && ok && i == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
