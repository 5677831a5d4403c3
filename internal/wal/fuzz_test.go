package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedSegment builds a real segment image: a fresh log with a few
// records, returned as raw bytes.
func fuzzSeedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := Open(dir, Options{SyncOnAppend: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(RecordType(1+i%3), fmt.Sprintf("owner-%d", i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	return seg
}

// FuzzWALFrameDecode feeds arbitrary bytes to the log as an on-disk segment.
// The serial and buffered segment scanners must agree on the valid prefix
// record for record; Open must never panic, must recover exactly that prefix
// (truncating torn or corrupt tails), and the recovered log must accept new
// appends that survive a reopen.
func FuzzWALFrameDecode(f *testing.F) {
	seed := fuzzSeedSegment(f)
	f.Add([]byte{})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                      // torn tail mid-record
	f.Add(append(bytes.Clone(seed), 0xA5, 0xA5))   // garbage tail
	f.Add(append(bytes.Clone(seed), seed...))      // duplicated frames
	f.Add(bytes.Repeat([]byte{0xFF}, 64))          // huge bogus length header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // short header
	mutated := bytes.Clone(seed)
	if len(mutated) > 20 {
		mutated[20] ^= 0x40 // flip a bit inside a record body (CRC break)
	}
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(0))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		serial, serialValid := scanFile(t, path, iterateRecords)
		bufd, bufdValid := scanFile(t, path, iterateRecordsBuffered)
		if serialValid != bufdValid || len(serial) != len(bufd) {
			t.Fatalf("serial scan kept %d bytes / %d records, buffered %d / %d",
				serialValid, len(serial), bufdValid, len(bufd))
		}
		for i := range serial {
			if !sameRecord(serial[i], bufd[i]) {
				t.Fatalf("record %d differs between serial and buffered scan", i)
			}
		}

		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open rejected a recoverable directory: %v", err)
		}
		var recs []Record
		if err := l.Replay(func(r Record) error { recs = append(recs, cloneRecord(r)); return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(recs) != len(serial) {
			t.Fatalf("Open recovered %d records, the scan %d", len(recs), len(serial))
		}
		for i := range recs {
			if !sameRecord(recs[i], serial[i]) {
				t.Fatalf("recovered record %d differs from the scanned one", i)
			}
		}
		// The recovered log must be writable and the write durable.
		if _, err := l.Append(RecordType(7), "fuzz", []byte("post-recovery")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l2.Close()
		n := 0
		last := Record{}
		if err := l2.Replay(func(r Record) error { n++; last = r; return nil }); err != nil {
			t.Fatalf("reopen replay: %v", err)
		}
		if n != len(recs)+1 || string(last.Payload) != "post-recovery" {
			t.Fatalf("post-recovery append lost: %d records after reopen, want %d", n, len(recs)+1)
		}
	})
}

// scanFile runs one segment scanner over the file at path and returns the
// records it delivered and the length of the valid prefix.
func scanFile(t *testing.T, path string, scan recordIterator) ([]Record, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	valid, err := scan(f, 0, fi.Size(), 0, func(r Record) error { recs = append(recs, cloneRecord(r)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return recs, valid
}

func cloneRecord(r Record) Record {
	r.Payload = bytes.Clone(r.Payload)
	return r
}

func sameRecord(a, b Record) bool {
	return a.LSN == b.LSN && a.Type == b.Type && a.Owner == b.Owner && bytes.Equal(a.Payload, b.Payload)
}
