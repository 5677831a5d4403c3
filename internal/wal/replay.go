package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Replay (DESIGN.md §3.7) streams each segment through one large buffered
// reader, the same scanner Open validates the log with, and hands every
// record to the callback on the calling goroutine before reading the next:
// a handful of read calls per megabyte, no hand-off between goroutines.

// replayBufBytes caps the buffered-reader size of the segment scans (the
// Open-time validation and Replay). One buffer per open segment, sized to
// the segment when it is smaller, so a small log does not pay for a
// megabyte; large enough that sequential scan speed is storage-bound, small
// enough to be irrelevant next to the rebuilt state.
const replayBufBytes = 1 << 20

// Replay reads every valid record from the low-water mark onward, invoking
// fn in log order. fn may keep the payloads it is handed. The first error fn
// returns ends the replay and is returned; a torn or corrupt tail terminates
// replay silently. Replay holds the write slot: it must not be interleaved
// with appends by fn.
func (l *Log) Replay(fn func(Record) error) error {
	l.writeSem <- struct{}{}
	defer func() { <-l.writeSem }()
	l.commitBatch()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	starts := append([]int64(nil), l.starts...)
	lowWater := l.lowWater
	l.mu.Unlock()
	written := l.written
	for i, st := range starts {
		end := written
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		if end <= lowWater {
			continue // fully checkpointed (not yet deleted)
		}
		f, err := os.Open(l.segPath(st))
		if err != nil {
			return fmt.Errorf("wal: open segment: %w", err)
		}
		valid, err := iterateRecordsBuffered(f, st, end-st, lowWater, fn)
		f.Close()
		if err != nil {
			return err
		}
		if st+valid < end {
			return nil // torn tail ends replay
		}
	}
	return nil
}

// iterateRecordsBuffered scans the records of one segment file whose first
// byte sits at global LSN base, reading at most limit bytes through a
// bufio.Reader. For every valid record with LSN >= skipBelow it invokes fn
// (when non-nil). It returns the byte length of the valid record prefix; an
// invalid header, torn body or checksum mismatch ends the scan without
// error. Bodies that reach fn are allocated individually, because Replay's
// callers keep the payloads; validation-only records (fn == nil, or below
// skipBelow) reuse one scratch buffer, so the Open-time scan allocates
// nothing per record.
func iterateRecordsBuffered(f *os.File, base, limit, skipBelow int64, fn func(Record) error) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("wal: seek: %w", err)
	}
	br := bufio.NewReaderSize(io.LimitReader(f, limit), int(min(limit, replayBufBytes)))
	var off int64
	hdr := make([]byte, recHeaderSize)
	var scratch []byte
	for off < limit {
		if _, err := io.ReadFull(br, hdr); err != nil {
			return off, nil // clean EOF or torn header
		}
		total := binary.LittleEndian.Uint32(hdr[0:4])
		if total < recHeaderSize || total > maxRecordSize || off+int64(total) > limit {
			return off, nil
		}
		need := int(total - recHeaderSize)
		var body []byte
		if fn != nil && base+off >= skipBelow {
			body = make([]byte, need)
		} else {
			if cap(scratch) < need {
				scratch = make([]byte, need)
			}
			body = scratch[:need]
		}
		if _, err := io.ReadFull(br, body); err != nil {
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
