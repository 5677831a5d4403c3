package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// Pipelined replay (DESIGN.md §3.7): Replay reads records with two small
// read calls per record and hands each one to the callback before touching
// the next — decode and apply fully interleaved. ReplayPipelined replaces
// that with a restart pipeline:
//
//   - segments stream through a large buffered reader (replayBufBytes), so
//     the per-record syscall pair becomes a handful of reads per megabyte;
//   - a worker pool runs the caller's decode on records ahead of the
//     applier — for the repository that is the DOV payload decode, the
//     dominant restart cost;
//   - apply is invoked strictly in LSN order with each record and its
//     decoded value, so the rebuilt state is byte-identical to serial
//     replay. The first error in LSN order (decode or apply) aborts the
//     replay and is the error returned, exactly as it would be serially.
//
// The pipeline keeps at most pipeDepth(workers) records in flight, so
// memory stays bounded by a few megabytes regardless of history length.

// replayBufBytes caps the buffered-reader size of the segment scans (the
// Open-time validation and the pipelined replay). One buffer per open
// segment, sized to the segment when it is smaller, so a small log does not
// pay for a megabyte; large enough that sequential scan speed is
// storage-bound, small enough to be irrelevant next to the rebuilt state.
const replayBufBytes = 1 << 20

// replayItem carries one record through the pipeline. done is closed by the
// decode worker once val/err are set; the applier waits on it in LSN order.
type replayItem struct {
	rec  Record
	val  any
	err  error
	done chan struct{}
}

// errReplayAborted stops the segment scan once the applier has failed; the
// applier's own first-in-order error is what ReplayPipelined returns.
var errReplayAborted = errors.New("wal: replay aborted")

// pipeDepth bounds the records in flight ahead of the applier.
func pipeDepth(workers int) int { return 4 * workers }

// ReplayPipelined reads every valid record from the low-water mark onward
// like Replay, but streams segments through a large read buffer and runs
// decode on a pool of `workers` goroutines while apply is invoked strictly
// in LSN order (see the package comment above). decode returning a non-nil
// error, or apply doing so, terminates the replay with that error; records
// decode declines (nil, nil) reach apply with a nil value. A torn or
// corrupt tail terminates replay silently. Like Replay it holds the write
// slot: decode and apply must not append.
//
// workers <= 1 keeps everything on the calling goroutine (decode and apply
// in sequence) but still reads through the large buffer — the configuration
// for single-CPU hosts, where the syscall batching is the whole win.
func (l *Log) ReplayPipelined(workers int, decode func(Record) (any, error), apply func(Record, any) error) error {
	if decode == nil {
		return errors.New("wal: ReplayPipelined needs a decode function")
	}
	if workers <= 1 {
		return l.replayBuffered(func(rec Record) error {
			val, err := decode(rec)
			if err != nil {
				return err
			}
			return apply(rec, val)
		})
	}

	jobs := make(chan *replayItem, pipeDepth(workers))
	ordered := make(chan *replayItem, pipeDepth(workers))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				it.val, it.err = decode(it.rec)
				close(it.done)
			}
		}()
	}
	// aborted tells the scanning goroutine to stop feeding once the applier
	// hit an error; applyErr delivers the applier's first-in-order error.
	var aborted atomic.Bool
	applyErr := make(chan error, 1)
	go func() {
		var first error
		for it := range ordered {
			<-it.done
			if first != nil {
				continue // drain; state is already poisoned
			}
			err := it.err
			if err == nil {
				err = apply(it.rec, it.val)
			}
			if err != nil {
				first = err
				aborted.Store(true)
			}
		}
		applyErr <- first
	}()

	scanErr := l.replayBuffered(func(rec Record) error {
		if aborted.Load() {
			return errReplayAborted
		}
		it := &replayItem{rec: rec, done: make(chan struct{})}
		// The ordered queue is enqueued first and has the same capacity as
		// jobs, so this pair of sends never deadlocks against the applier.
		ordered <- it
		jobs <- it
		return nil
	})
	close(jobs)
	wg.Wait()
	close(ordered)
	ferr := <-applyErr
	if ferr != nil {
		return ferr // first error in LSN order, as serial replay would see
	}
	if errors.Is(scanErr, errReplayAborted) {
		return nil // applier error already handled above
	}
	return scanErr
}

// replayBuffered is Replay with the buffered segment scanner.
func (l *Log) replayBuffered(fn func(Record) error) error {
	return l.replayWith(iterateRecordsBuffered, fn)
}

// iterateRecordsBuffered is iterateRecords reading through a large
// bufio.Reader instead of issuing two read calls per record. Bodies that
// will reach fn are allocated individually — the pipelined replay hands
// payloads to decode workers that outlive the buffer window — while
// validation-only records (fn == nil, or below the low-water mark) reuse
// one scratch buffer, so the Open-time scan allocates nothing per record.
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
