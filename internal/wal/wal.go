// Package wal implements the append-only redo log used by the CONCORD
// repository, the transaction managers, the design manager and the
// cooperation manager for durability and crash recovery.
//
// The log is a sequence of length-prefixed, CRC32-checked records stored in
// rotating segment files under one directory. Each record carries a record
// type (assigned by the client layer), an owner tag (e.g. a DOP or DA
// identifier) and an opaque payload. Segment files are named by the LSN of
// their first byte and are dense: segment N+1 starts exactly where segment N
// ends, so an LSN is a global byte offset into the whole log. Replay
// tolerates a torn tail: a record whose length prefix or checksum is invalid
// terminates replay without error, mirroring the behaviour of a crashed
// writer.
//
// Checkpointing: once a caller has captured the state up to some LSN L in a
// snapshot of its own, Checkpoint(L) durably records L as the log's
// low-water mark (atomic tmp-write/fsync/rename of a marker file) and
// deletes every sealed segment lying entirely below L. Replay then starts at
// the low-water mark, so both recovery work and disk usage are bounded by
// the live suffix instead of the full history.
//
// Appends use group commit: concurrent appenders reserve their LSNs under a
// short mutex and enqueue the framed record; the first appender to acquire
// the write slot becomes the batch leader, writes every pending record with
// a single buffered write and forces the file to stable storage once for the
// whole batch. Append returns only after the batch containing the record is
// durable, so the per-record durability contract is unchanged while the
// fsync cost is amortized over all concurrent writers.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"concord/internal/fault"
)

// RecordType distinguishes the kinds of log records. The values are assigned
// by the layers above (repository, TMs, DM, CM); the WAL treats them opaquely.
type RecordType uint16

// LSN is a log sequence number: the global byte offset of a record in the log
// (segment start + offset within the segment; segments are dense).
type LSN uint64

// Record is a single durable log entry.
type Record struct {
	// LSN is the byte offset at which the record starts. Assigned on append.
	LSN LSN
	// Type tags the record for the replaying layer.
	Type RecordType
	// Owner identifies the logical writer (a DOP, DA, or manager name).
	Owner string
	// Payload is the opaque record body.
	Payload []byte
}

// commitReq is one appender's entry in the pending batch. done is closed by
// the batch leader once the record is on disk (or the write failed).
type commitReq struct {
	buf []byte
	// fb owns buf's backing array; the batch leader recycles it once the
	// record has been written (the waiter only reads lsn and err).
	fb   *frameBuf
	lsn  LSN
	err  error
	done chan struct{}
}

// frameBufPool recycles record framing buffers: every append frames its
// record (header + owner + payload) into one of these, and the batch leader
// returns it to the pool right after the bytes hit the file — so the append
// hot path reuses a handful of buffers instead of allocating one per record.
var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameBuf is a pooled framing buffer.
type frameBuf struct{ b []byte }

// maxPooledFrameBytes caps what a released frame buffer may park in the pool
// so bulk records do not pin worst-case memory.
const maxPooledFrameBytes = 256 << 10

func getFrameBuf() *frameBuf { return frameBufPool.Get().(*frameBuf) }

func putFrameBuf(f *frameBuf) {
	if f == nil {
		return
	}
	if cap(f.b) > maxPooledFrameBytes {
		f.b = nil
	}
	frameBufPool.Put(f)
}

// Log is an append-only, checksummed redo log backed by a directory of
// rotating segment files. All methods are safe for concurrent use.
type Log struct {
	// mu guards size, closed, err, the pending batch, starts and lowWater;
	// it is never held across file I/O.
	mu      sync.Mutex
	pending []*commitReq
	size    int64
	closed  bool
	err     error // sticky write failure: the log is unusable afterwards
	// starts holds the start LSN of every live segment, ascending; the last
	// entry is the active segment. Mutated only while holding the write
	// slot (plus mu for the brief pointer swap).
	starts []int64
	// lowWater is the checkpointed LSN: records below it are covered by the
	// caller's snapshot and skipped on replay.
	lowWater int64

	// writeSem is a capacity-1 semaphore held by the batch leader while it
	// writes and syncs. Replay/Sync/Close acquire it to get exclusive use of
	// the file descriptor; Checkpoint takes it only briefly (flush + decide,
	// and for the recovery-only restartAt), never across the mark install.
	writeSem chan struct{}

	// ckptMu serializes checkpoints against each other. Checkpoint installs
	// its mark and drops covered segments WITHOUT the write slot — appenders
	// must not stall behind the mark's fsyncs — so this mutex is what keeps
	// two concurrent checkpoints from double-removing segments.
	ckptMu sync.Mutex

	dir string
	// f is the active segment's file. Only accessed while holding the write
	// slot.
	f *os.File
	// written is the number of bytes actually on disk (a global LSN). Only
	// accessed while holding the write slot.
	written int64
	// segBytes is the rotation threshold: once the active segment holds at
	// least this many bytes the leader seals it and opens a new one.
	segBytes int64
	// syncOnAppend forces an fsync per batch (forced log writes).
	syncOnAppend bool
	// faults is the named fault-point registry traversed at the Crash*
	// points (nil-safe; inert unless a test arms a point).
	faults *fault.Registry

	// shipper, when non-nil, receives every durable batch right after its
	// fsync and before the group-commit waiters are released (read under mu;
	// invoked while holding the write slot — see Shipper).
	shipper Shipper

	// Batching statistics (atomic; Stats).
	appends     uint64
	batches     uint64
	syncs       uint64
	checkpoints uint64
}

// Shipper receives every durable append batch, synchronously, while the
// batch leader still holds the write slot and before any waiter is released
// — the hook synchronous WAL replication hangs off (internal/repl). start is
// the LSN of the batch's first byte, frames holds the records in their exact
// on-disk framing, and records is how many there are. A non-nil error is
// latched as the log's sticky write error: the batch's waiters and every
// later append fail with it, exactly like a local write failure. Ship must
// therefore return nil for transient delivery problems it wants the commit
// to survive (degrading to asynchronous catch-up), reserving errors for
// fencing decisions that must stop this log for good.
type Shipper interface {
	Ship(start LSN, frames []byte, records int) error
}

const (
	// header: u32 totalLen | u32 crc | u16 type | u16 ownerLen
	recHeaderSize = 4 + 4 + 2 + 2
	maxRecordSize = 64 << 20 // 64 MiB sanity cap

	// DefaultSegmentBytes is the rotation threshold used when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 4 << 20

	segSuffix   = ".seg"
	markName    = "checkpoint"
	markTmpName = "checkpoint.tmp"
)

// Crash points traversed on Options.Faults during Checkpoint, in protocol
// order. An armed point freezes the on-disk state exactly as a crash at
// that step would.
const (
	// CrashBeforeMark fires before the new marker is written.
	CrashBeforeMark = "wal:before-mark"
	// CrashMarkTmp fires after the marker tmp file is written and synced,
	// before it is renamed into place.
	CrashMarkTmp = "wal:mark-tmp"
	// CrashMarkInstalled fires after the marker rename, before any segment
	// is deleted.
	CrashMarkInstalled = "wal:mark-installed"
	// CrashSegmentDeleted fires after each obsolete segment is unlinked.
	CrashSegmentDeleted = "wal:segment-deleted"
)

// FaultAppendSync is the fault point traversed on the append/fsync path,
// just before the batch write hits the file. Arming it with an error
// simulates a full disk: the batch is refused, the injected error is
// latched as the log's sticky write error, and every later append fails the
// same way — exactly what a real ENOSPC does. Unlike the Crash* points it
// models a disk that stays up but stops accepting writes, not a process
// crash.
const FaultAppendSync = "wal:append-sync"

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log.
type Options struct {
	// SyncOnAppend forces the file to stable storage after each append
	// batch. Benchmarks may disable it; correctness tests enable it.
	SyncOnAppend bool
	// SegmentBytes is the segment rotation threshold (default
	// DefaultSegmentBytes). A segment may overshoot by one append batch.
	SegmentBytes int64
	// Faults, when non-nil, is traversed at the named steps of the
	// checkpoint protocol (the Crash* constants). An armed point aborts
	// the operation there without any further disk mutation, simulating a
	// crash; tests then reopen the directory and assert recovery. Never
	// armed in production.
	Faults *fault.Registry
}

func segName(start int64) string { return fmt.Sprintf("%020d%s", start, segSuffix) }

func (l *Log) segPath(start int64) string { return filepath.Join(l.dir, segName(start)) }

// SyncDir forces directory metadata (renames, new and deleted files) to
// stable storage — the second half of every atomic tmp-write/rename install
// in the checkpoint protocol (the repository snapshot installer shares it).
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// errSingleFileLog refuses a log path that is a regular file: the layout
// before segment directories, which this build neither reads nor migrates.
// The error names the layout so the operator knows the records are there.
var errSingleFileLog = errors.New("wal: log is a single file, the layout before segment directories (open it once with an older build, which migrates it, or remove it)")

// Open opens (creating if necessary) the log directory at path. Existing
// segments are scanned so that new appends continue after the last valid
// record; a torn tail is truncated. A regular file at path is refused with
// errSingleFileLog and left untouched.
func Open(path string, opts Options) (*Log, error) {
	if fi, err := os.Stat(path); err == nil && fi.Mode().IsRegular() {
		return nil, fmt.Errorf("%w: %s", errSingleFileLog, path)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	os.Remove(filepath.Join(path, markTmpName)) //nolint:errcheck // stray tmp from a crashed checkpoint
	l := &Log{
		dir:          path,
		segBytes:     opts.SegmentBytes,
		syncOnAppend: opts.SyncOnAppend,
		faults:       opts.Faults,
		writeSem:     make(chan struct{}, 1),
	}
	if l.segBytes <= 0 {
		l.segBytes = DefaultSegmentBytes
	}
	l.lowWater = readMark(path)
	starts, err := listSegments(path)
	if err != nil {
		return nil, err
	}
	if len(starts) == 0 {
		starts = []int64{l.lowWater}
		if err := createSegment(l.segPath(l.lowWater), path); err != nil {
			return nil, err
		}
	}
	size, starts, err := l.scanSegments(starts)
	if err != nil {
		return nil, err
	}
	if size < l.lowWater {
		// The marker ran ahead of the durable log (crash after a snapshot
		// install, before the covered records were forced). Everything below
		// the mark is covered by the caller's snapshot: restart the log
		// there with a fresh segment.
		for _, st := range starts {
			if err := os.Remove(l.segPath(st)); err != nil {
				return nil, fmt.Errorf("wal: reset segment: %w", err)
			}
		}
		starts = []int64{l.lowWater}
		if err := createSegment(l.segPath(l.lowWater), path); err != nil {
			return nil, err
		}
		size = l.lowWater
	}
	if starts[0] > l.lowWater {
		// Should not happen (segments are only deleted after the marker is
		// durable); treat the missing prefix as checkpointed.
		l.lowWater = starts[0]
	}
	// Complete an interrupted deletion (crash between the marker install
	// and dropCoveredSegments): sealed segments lying entirely below the
	// mark are unreachable on replay and must not occupy disk forever.
	for len(starts) > 1 && starts[1] <= l.lowWater {
		if err := os.Remove(l.segPath(starts[0])); err != nil {
			return nil, fmt.Errorf("wal: drop covered segment: %w", err)
		}
		starts = starts[1:]
	}
	l.starts = starts
	active := starts[len(starts)-1]
	f, err := os.OpenFile(l.segPath(active), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := f.Truncate(size - active); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(size-active, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.f = f
	l.size = size
	l.written = size
	return l, nil
}

// createSegment creates an empty segment file and makes its directory entry
// durable.
func createSegment(path, dir string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// listSegments returns the start LSNs of all segment files, ascending.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var starts []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := strconv.ParseInt(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file
		}
		starts = append(starts, start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// readMark loads the checkpoint marker, returning 0 when absent or corrupt.
// Format: u64 LE low-water LSN | u32 LE CRC32 of the first 8 bytes.
func readMark(dir string) int64 {
	data, err := os.ReadFile(filepath.Join(dir, markName))
	if err != nil || len(data) != 12 {
		return 0
	}
	if crc32.ChecksumIEEE(data[:8]) != binary.LittleEndian.Uint32(data[8:12]) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(data[:8]))
}

// scanSegments validates contiguity and record integrity across the segment
// chain, truncating at the first tear and dropping any segments after it.
// It returns the total valid log size and the surviving segment starts. The
// scan reads through iterateRecordsBuffered, whose reader is sized to the
// segment, and checks bodies in one reused scratch buffer.
func (l *Log) scanSegments(starts []int64) (int64, []int64, error) {
	size := starts[0]
	for i, st := range starts {
		if st != size {
			// Gap or overlap: everything from here on is unreachable.
			for _, drop := range starts[i:] {
				if err := os.Remove(l.segPath(drop)); err != nil {
					return 0, nil, fmt.Errorf("wal: drop segment: %w", err)
				}
			}
			starts = starts[:i]
			break
		}
		f, err := os.Open(l.segPath(st))
		if err != nil {
			return 0, nil, fmt.Errorf("wal: open segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return 0, nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		valid, err := iterateRecordsBuffered(f, st, fi.Size(), 0, nil)
		f.Close()
		if err != nil {
			return 0, nil, err
		}
		size = st + valid
		if valid < fi.Size() {
			// Torn or corrupt tail: this segment ends the log.
			for _, drop := range starts[i+1:] {
				if err := os.Remove(l.segPath(drop)); err != nil {
					return 0, nil, fmt.Errorf("wal: drop segment: %w", err)
				}
			}
			starts = starts[:i+1]
			break
		}
	}
	if len(starts) == 0 {
		// The first listed segment did not start where expected — cannot
		// happen with size initialized to starts[0], but keep the invariant
		// that at least one segment survives.
		return 0, nil, errors.New("wal: no usable segment")
	}
	return size, starts, nil
}

// frameInto appends one record's on-disk form to dst (header, owner,
// payload in place — no intermediate body buffer) and returns the extended
// slice. Allocation-free when dst has capacity, which is what the frame
// buffer pool provides on the append hot path.
func frameInto(dst []byte, t RecordType, owner string, payload []byte) ([]byte, error) {
	if len(owner) > 0xFFFF {
		return nil, fmt.Errorf("wal: owner too long (%d bytes)", len(owner))
	}
	total := uint32(recHeaderSize + len(owner) + len(payload))
	if total > maxRecordSize {
		return nil, fmt.Errorf("wal: record too large (%d bytes)", total)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) // recHeaderSize placeholder
	dst = append(dst, owner...)
	dst = append(dst, payload...)
	hdr := dst[start:]
	body := dst[start+recHeaderSize:]
	binary.LittleEndian.PutUint32(hdr[0:4], total)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint16(hdr[8:10], uint16(t))
	binary.LittleEndian.PutUint16(hdr[10:12], uint16(len(owner)))
	return dst, nil
}

// Append durably adds a record and returns its LSN. It returns once the
// batch containing the record has been written (and, with SyncOnAppend,
// forced to stable storage).
func (l *Log) Append(t RecordType, owner string, payload []byte) (LSN, error) {
	wait, err := l.AppendAsync(t, owner, payload)
	if err != nil {
		return 0, err
	}
	return wait()
}

// AppendAsync reserves the record's place in the log (its LSN is fixed, and
// every later Append/AppendAsync is ordered after it) and returns a wait
// function that blocks until the batch containing the record is durable.
// Callers that hold a state lock while appending should reserve under the
// lock and wait outside it, so that concurrent transactions' records gather
// into one batch instead of serializing fsyncs behind the lock.
func (l *Log) AppendAsync(t RecordType, owner string, payload []byte) (func() (LSN, error), error) {
	fb := getFrameBuf()
	buf, err := frameInto(fb.b[:0], t, owner, payload)
	if err != nil {
		putFrameBuf(fb)
		return nil, err
	}
	fb.b = buf
	atomic.AddUint64(&l.appends, 1)
	req := &commitReq{buf: buf, fb: fb, done: make(chan struct{})}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		putFrameBuf(fb)
		return nil, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		putFrameBuf(fb)
		return nil, err
	}
	req.lsn = LSN(l.size)
	l.size += int64(len(buf))
	l.pending = append(l.pending, req)
	l.mu.Unlock()

	return func() (LSN, error) {
		// Wait for a leader to commit our batch, or become the leader. A
		// leader drains every pending request, so after commitBatch our own
		// request is done.
		select {
		case <-req.done:
		case l.writeSem <- struct{}{}:
			l.commitBatch()
			<-l.writeSem
			<-req.done
		}
		return req.lsn, req.err
	}, nil
}

// SetShipper installs (or, with nil, removes) the synchronous batch shipper.
// Safe to call on a live log: the next batch leader observes the new value.
func (l *Log) SetShipper(s Shipper) {
	l.mu.Lock()
	l.shipper = s
	l.mu.Unlock()
}

// fail records a sticky write error: the offset bookkeeping no longer
// matches the file, so all subsequent appends must be refused.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// commitBatch drains the pending queue and commits it with one write and at
// most one fsync, sealing the active segment if it crossed the rotation
// threshold. The caller must hold the write slot.
//
// Between the drain and the disk force the leader yields the processor once:
// appenders that lost the race to the drain by a few instructions (on a
// single-CPU host: every appender woken by the previous batch) get to park
// their reservations in this batch instead of paying for one more fsync
// cycle. The yield costs nanoseconds against a forced write and nothing
// measurable without one.
func (l *Log) commitBatch() {
	l.mu.Lock()
	batch := l.pending
	l.pending = nil
	werr := l.err
	shipper := l.shipper
	l.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if werr == nil {
		runtime.Gosched()
		l.mu.Lock()
		if len(l.pending) > 0 {
			batch = append(batch, l.pending...)
			l.pending = nil
		}
		werr = l.err
		l.mu.Unlock()
	}
	if werr == nil {
		buf := batch[0].buf
		var cb *frameBuf
		if len(batch) > 1 {
			// Coalesce into one pooled buffer so the batch costs one write
			// (and the per-record frame buffers free up immediately after).
			cb = getFrameBuf()
			b := cb.b[:0]
			for _, r := range batch {
				b = append(b, r.buf...)
			}
			cb.b = b
			buf = b
		}
		atomic.AddUint64(&l.batches, 1)
		startOff := l.written
		if err := l.faults.At(FaultAppendSync); err != nil {
			werr = fmt.Errorf("wal: write: %w", err)
			l.fail(werr)
		} else if _, err := l.f.Write(buf); err != nil {
			werr = fmt.Errorf("wal: write: %w", err)
			l.fail(werr)
		} else {
			l.written += int64(len(buf))
			if l.syncOnAppend {
				atomic.AddUint64(&l.syncs, 1)
				if err := l.f.Sync(); err != nil {
					werr = fmt.Errorf("wal: sync: %w", err)
					l.fail(werr)
				}
			}
		}
		if werr == nil && shipper != nil {
			// Synchronous replication: the batch is durable locally; ship it
			// before any waiter is released. A shipper error fences the log
			// (sticky failure) exactly like a local write error would.
			if err := shipper.Ship(LSN(startOff), buf, len(batch)); err != nil {
				werr = fmt.Errorf("wal: ship: %w", err)
				l.fail(werr)
			}
		}
		putFrameBuf(cb)
	}
	for _, r := range batch {
		// The record is on disk (or refused); recycle its framing buffer
		// before waking the waiter — it only reads lsn and err.
		r.buf = nil
		putFrameBuf(r.fb)
		r.fb = nil
		r.err = werr
		close(r.done)
	}
	if werr == nil {
		l.maybeRotate()
	}
}

// maybeRotate seals the active segment once it holds segBytes and opens a
// fresh one starting at the durable tail. The caller must hold the write
// slot. Rotation failures leave the current segment active (the log keeps
// working, just without compaction granularity).
func (l *Log) maybeRotate() {
	l.mu.Lock()
	active := l.starts[len(l.starts)-1]
	l.mu.Unlock()
	if l.written-active < l.segBytes {
		return
	}
	// The sealed segment's contents must be stable before the dirent of its
	// successor: a checkpoint may delete it later, after which its bytes are
	// unrecoverable.
	if err := l.f.Sync(); err != nil {
		l.fail(fmt.Errorf("wal: seal sync: %w", err))
		return
	}
	newStart := l.written
	nf, err := os.OpenFile(l.segPath(newStart), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return // keep appending to the oversized segment
	}
	if err := SyncDir(l.dir); err != nil {
		nf.Close()
		return
	}
	l.f.Close()
	l.f = nf
	l.mu.Lock()
	l.starts = append(l.starts, newStart)
	l.mu.Unlock()
}

// Sync flushes any pending batch and forces buffered records to stable
// storage.
func (l *Log) Sync() error {
	l.writeSem <- struct{}{}
	defer func() { <-l.writeSem }()
	l.commitBatch()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.err; err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	return l.f.Sync()
}

// Size reports the current log size in bytes (== the LSN of the next record).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// LowWater reports the checkpointed LSN: replay starts here, and every
// record below it is covered by the caller's snapshot.
func (l *Log) LowWater() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LSN(l.lowWater)
}

// SegmentCount reports the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.starts)
}

// DiskBytes reports the total size of all live segment files on disk — the
// quantity checkpointing bounds (unlike Size, which is the lifetime LSN
// high-water mark and never shrinks).
func (l *Log) DiskBytes() int64 {
	l.mu.Lock()
	starts := append([]int64(nil), l.starts...)
	l.mu.Unlock()
	var total int64
	for _, st := range starts {
		if fi, err := os.Stat(l.segPath(st)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Stats reports append/batch/sync/checkpoint counts since Open. With
// concurrent appenders and group commit, batches (and syncs) stay well below
// appends; the ratio appends/batches is the achieved group-commit factor.
func (l *Log) Stats() (appends, batches, syncs uint64) {
	return atomic.LoadUint64(&l.appends),
		atomic.LoadUint64(&l.batches),
		atomic.LoadUint64(&l.syncs)
}

// Checkpoints reports how many checkpoint installs completed since Open.
func (l *Log) Checkpoints() uint64 { return atomic.LoadUint64(&l.checkpoints) }

// Close flushes pending appends and releases the underlying file.
func (l *Log) Close() error {
	l.writeSem <- struct{}{}
	defer func() { <-l.writeSem }()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	// closed stops new enqueues; drain what was already pending so every
	// Append that reserved an LSN resolves before the descriptor closes.
	l.commitBatch()
	return l.f.Close()
}

// Checkpoint durably records lsn as the log's low-water mark and deletes
// every sealed segment lying entirely below it. The caller must have
// captured all state up to lsn durably in a snapshot of its own before
// calling: after Checkpoint returns, records below lsn are no longer
// replayed and their segments may be gone.
//
// Chained snapshots (DESIGN.md §3.8): the mark makes no assumption that one
// snapshot record covers lsn — the caller may cover it with a chain of
// incremental snapshot files. The contract is then per chain, not per file:
// pass the coverage LSN of the *durably linked* chain tip, never an LSN a
// not-yet-fsynced manifest entry would cover, because segment deletion below
// the mark is immediate and unrecoverable. The inverse invariant (the mark
// never exceeds surviving chain coverage) is what repo.Open verifies before
// trusting a recovered chain.
//
// An lsn beyond the durable tail is accepted (it arises when a recovery
// completes a checkpoint whose snapshot installed but whose log mark was
// lost): the log restarts with a fresh segment at lsn. Checkpoint is
// monotonic — an lsn at or below the current low-water mark is a no-op.
func (l *Log) Checkpoint(lsn LSN) error {
	target := int64(lsn)
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	// Take the write slot only long enough to flush the pending batch and
	// decide; the mark install below runs without it, so concurrent appends
	// never stall behind the marker's fsyncs (the E19 latency bound).
	l.writeSem <- struct{}{}
	l.commitBatch()
	l.mu.Lock()
	closed, werr := l.closed, l.err
	lowWater, size := l.lowWater, l.size
	l.mu.Unlock()
	<-l.writeSem
	if closed {
		return ErrClosed
	}
	if werr != nil {
		// A write already failed: records below target may never have
		// reached disk, and their callers were told so. Installing a mark
		// over them would resurrect refused operations from the caller's
		// snapshot at the next recovery.
		return werr
	}
	if target <= lowWater {
		return nil
	}
	advance := target > size

	if err := l.hookAt(CrashBeforeMark); err != nil {
		return err
	}
	if err := l.writeMark(target); err != nil {
		return err
	}
	if err := l.hookAt(CrashMarkInstalled); err != nil {
		return err
	}
	l.mu.Lock()
	l.lowWater = target
	l.mu.Unlock()
	atomic.AddUint64(&l.checkpoints, 1)
	if advance {
		// Recovery-only path: the mark outruns the durable tail when a crash
		// left an installed snapshot without its mark, and Open completes the
		// checkpoint before any appender exists. Replacing the active segment
		// still needs the write slot.
		l.writeSem <- struct{}{}
		defer func() { <-l.writeSem }()
		return l.restartAt(target)
	}
	return l.dropCoveredSegments(target)
}

// hookAt traverses a crash point on the fault registry; an armed point
// aborts the checkpoint exactly at that step.
func (l *Log) hookAt(point string) error {
	if err := l.faults.At(point); err != nil {
		return fmt.Errorf("wal: checkpoint aborted at %s: %w", point, err)
	}
	return nil
}

// writeMark installs the low-water marker via tmp-write/fsync/rename.
func (l *Log) writeMark(target int64) error {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint64(buf[:8], uint64(target))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[:8]))
	tmp := filepath.Join(l.dir, markTmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: mark tmp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: mark write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: mark sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: mark close: %w", err)
	}
	if err := l.hookAt(CrashMarkTmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, markName)); err != nil {
		return fmt.Errorf("wal: mark rename: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: mark dir sync: %w", err)
	}
	return nil
}

// dropCoveredSegments unlinks sealed segments whose whole range lies below
// the low-water mark. The active segment is never deleted. It runs without
// the write slot — appenders may seal new segments concurrently, which only
// appends to l.starts, so the dropped entries are stripped as a prefix
// rather than overwriting the live slice.
func (l *Log) dropCoveredSegments(target int64) error {
	l.mu.Lock()
	starts := append([]int64(nil), l.starts...)
	l.mu.Unlock()
	dropped := 0
	for i := 0; i+1 < len(starts) && starts[i+1] <= target; i++ {
		if err := os.Remove(l.segPath(starts[i])); err != nil {
			l.stripDroppedStarts(dropped)
			return fmt.Errorf("wal: drop segment: %w", err)
		}
		dropped = i + 1
		if err := l.hookAt(CrashSegmentDeleted); err != nil {
			l.stripDroppedStarts(dropped)
			return err
		}
	}
	l.stripDroppedStarts(dropped)
	return nil
}

// stripDroppedStarts removes the first n entries from l.starts (the sealed
// segments dropCoveredSegments just unlinked; sealing only ever appends, so
// they are still the slice's prefix).
func (l *Log) stripDroppedStarts(n int) {
	if n == 0 {
		return
	}
	l.mu.Lock()
	l.starts = append([]int64(nil), l.starts[n:]...)
	l.mu.Unlock()
}

// restartAt replaces every segment with a fresh one starting at target; all
// current content is below the (already durable) low-water mark. Pending
// reservations are re-based onto the new tail.
func (l *Log) restartAt(target int64) error {
	l.mu.Lock()
	starts := append([]int64(nil), l.starts...)
	l.mu.Unlock()
	nf, err := os.OpenFile(l.segPath(target), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: restart segment: %w", err)
	}
	if err := SyncDir(l.dir); err != nil {
		nf.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	l.f.Close()
	l.f = nf
	for _, st := range starts {
		if st == target {
			continue
		}
		if err := os.Remove(l.segPath(st)); err != nil {
			return fmt.Errorf("wal: drop segment: %w", err)
		}
	}
	l.written = target
	l.mu.Lock()
	l.starts = []int64{target}
	// Reservations enqueued since the flush above hold offsets below the new
	// tail; they have not been written (we hold the write slot), so re-base
	// them onto it.
	off := target
	for _, r := range l.pending {
		r.lsn = LSN(off)
		off += int64(len(r.buf))
	}
	l.size = off
	l.mu.Unlock()
	return nil
}
