package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// The buffered segment scanner must agree with the unbuffered reference
// scanner (iterateRecords, below) on the valid prefix record for record; Open must never panic, must recover exactly that prefix
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
		ref, refValid := scanFile(t, path, iterateRecords)
		bufd, bufdValid := scanFile(t, path, iterateRecordsBuffered)
		if refValid != bufdValid || len(ref) != len(bufd) {
			t.Fatalf("reference scan kept %d bytes / %d records, buffered %d / %d",
				refValid, len(ref), bufdValid, len(bufd))
		}
		for i := range ref {
			if !sameRecord(ref[i], bufd[i]) {
				t.Fatalf("record %d differs between reference and buffered scan", i)
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
		if len(recs) != len(ref) {
			t.Fatalf("Open recovered %d records, the scan %d", len(recs), len(ref))
		}
		for i := range recs {
			if !sameRecord(recs[i], ref[i]) {
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
func scanFile(t *testing.T, path string, scan func(f *os.File, base, limit, skipBelow int64, fn func(Record) error) (int64, error)) ([]Record, int64) {
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

// iterateRecords is the reference frame decoder the fuzz target checks
// iterateRecordsBuffered against: the same contract, read with two plain
// read calls per record and no buffer reuse.
func iterateRecords(f *os.File, base, limit, skipBelow int64, fn func(Record) error) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: seek: %w", err)
	}
	var off int64
	hdr := make([]byte, recHeaderSize)
	for off < limit {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return off, nil // clean EOF or torn header
		}
		total := binary.LittleEndian.Uint32(hdr[0:4])
		if total < recHeaderSize || total > maxRecordSize || off+int64(total) > limit {
			return off, nil
		}
		body := make([]byte, total-recHeaderSize)
		if _, err := io.ReadFull(f, body); err != nil {
			return off, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return off, nil // corrupt
		}
		ownerLen := int(binary.LittleEndian.Uint16(hdr[10:12]))
		if ownerLen > len(body) {
			return off, nil
		}
		if fn != nil && base+off >= skipBelow {
			rec := Record{
				LSN:     LSN(base + off),
				Type:    RecordType(binary.LittleEndian.Uint16(hdr[8:10])),
				Owner:   string(body[:ownerLen]),
				Payload: body[ownerLen:],
			}
			if err := fn(rec); err != nil {
				return off, err
			}
		}
		off += int64(total)
	}
	return off, nil
}

func cloneRecord(r Record) Record {
	r.Payload = bytes.Clone(r.Payload)
	return r
}

func sameRecord(a, b Record) bool {
	return a.LSN == b.LSN && a.Type == b.Type && a.Owner == b.Owner && bytes.Equal(a.Payload, b.Payload)
}
