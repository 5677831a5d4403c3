// Package binenc provides the compact binary encoding used on CONCORD's hot
// paths: the client-TM/server-TM wire messages, the catalog object codec and
// the repository's DOV log records. The stdlib gob codec recompiles its
// encoder/decoder engines for every message (each RPC is a fresh stream),
// which dominated the server CPU profile under multi-workstation load;
// this hand-rolled format avoids reflection entirely.
//
// The format is position-based (no field tags): writer and reader must agree
// on the field sequence, which the owning types encapsulate in their
// encode/decode pairs. Integers are varints, floats are fixed 8-byte
// little-endian IEEE 754, strings and byte slices are length-prefixed.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrCorrupt reports a malformed or truncated buffer.
var ErrCorrupt = errors.New("binenc: corrupt buffer")

// Writer accumulates an encoded buffer. The zero value is ready for use.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles Writers for transient encodes (wire messages, WAL
// record bodies): the hot paths encode, hand the bytes to a consumer that
// copies or transmits them, and free the writer — steady-state encoding then
// allocates nothing.
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

// maxPooledWriterBytes caps the buffer a freed writer may park in the pool;
// larger one-off encodes (bulk payloads) are dropped so the pool never pins
// worst-case memory.
const maxPooledWriterBytes = 256 << 10

// GetWriter returns a pooled writer with at least the given capacity.
// Callers must finish with the buffer returned by Bytes before calling Free:
// ownership of the bytes stays with the writer. Use Detach when the encoding
// must outlive the writer (e.g. a memoized result).
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	if cap(w.buf) < capacity {
		w.buf = make([]byte, 0, capacity)
	} else {
		w.buf = w.buf[:0]
	}
	return w
}

// Free resets the writer and returns it to the pool. The buffer previously
// returned by Bytes must no longer be referenced — it will be overwritten by
// the writer's next user.
func (w *Writer) Free() {
	if cap(w.buf) > maxPooledWriterBytes {
		w.buf = nil
	}
	w.buf = w.buf[:0]
	writerPool.Put(w)
}

// Detach surrenders the accumulated buffer to the caller and leaves the
// writer empty, so a subsequent Free cannot recycle bytes the caller
// retains.
func (w *Writer) Detach() []byte {
	b := w.buf
	w.buf = nil
	return b
}

// Reset empties the writer, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// I64 appends a signed varint (zigzag).
func (w *Writer) I64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// F64 appends a float as 8 fixed bytes.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Str appends a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes without a length prefix — for trailing variable-length
// fields whose extent the container bounds (e.g. the chunk body of a wire
// frame, delimited by the frame length itself).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Strs appends a count-prefixed string slice.
func (w *Writer) Strs(ss []string) {
	w.U64(uint64(len(ss)))
	for _, s := range ss {
		w.Str(s)
	}
}

// Reader decodes a buffer produced by Writer. Errors are sticky: after the
// first failure every accessor returns zero values, so call sites check
// Err() once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a buffer.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d of %d", ErrCorrupt, r.off, len(r.buf))
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// F64 reads a fixed 8-byte float.
func (r *Reader) F64() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// take reads n bytes.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.U64())) }

// Blob reads a length-prefixed byte slice. The returned slice is a copy; it
// does not alias the reader's buffer.
func (r *Reader) Blob() []byte {
	b := r.take(r.U64())
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// BlobView reads a length-prefixed byte slice without copying it: the
// result aliases the reader's buffer, its capacity clipped to its length so
// an append cannot reach the bytes behind it. It stays valid exactly as long
// as the buffer does.
func (r *Reader) BlobView() []byte {
	b := r.take(r.U64())
	return b[:len(b):len(b)]
}

// Strs reads a count-prefixed string slice (nil when empty).
func (r *Reader) Strs() []string {
	n := r.U64()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Remaining()) { // each element needs ≥1 byte
		r.fail()
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Str())
	}
	return out
}
