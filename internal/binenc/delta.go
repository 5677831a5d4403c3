package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Byte-level delta codec for the workstation checkout cache (DESIGN.md §4).
// A delta is an edit script transforming one encoded buffer (the base, which
// both ends already hold) into another (the target): a sequence of copy ops
// referencing base ranges and insert ops carrying literal bytes. The matcher
// is rsync-shaped — the base is indexed by a weak rolling hash over
// non-overlapping blocks, the target is scanned with the rolling window, and
// every weak hit is verified byte-for-byte and extended greedily — so shifted
// content (an insertion early in a large object) still matches block-aligned
// base ranges.
//
// Most checkout misses offer a base that shares nothing with the target, so
// the matcher is built to lose cheaply: the block index is a flat
// open-addressed table behind a one-bit-per-hash prefilter (a target byte
// that cannot match costs one multiply and one bit test), index memory is
// pooled, and a sampling pre-pass gives up before the full scan when the pair
// is evidently unrelated (see futile).
//
// The codec guarantees only structural integrity (ops in range, output length
// as declared). It does NOT authenticate content: applying a well-formed
// delta to the wrong base yields well-formed wrong bytes. Callers must verify
// the reconstructed buffer against a content hash before trusting it, which
// is exactly what the checkout/checkin protocol does on both ends.

// ErrDelta reports a structurally invalid delta or a base of the wrong size.
var ErrDelta = errors.New("binenc: invalid delta")

// deltaMagic tags the delta format; it is distinct from every record format
// tag already in use so mixed-up buffers fail fast.
const deltaMagic = 0xD2

// deltaBlock is the match granularity: smaller finds finer-grained reuse,
// larger shrinks the base index. 32 suits the catalog object encoding, whose
// attribute and part records are tens of bytes.
const deltaBlock = 32

// deltaCandidates bounds the base blocks kept per weak hash; more would trade
// CPU for marginal matches.
const deltaCandidates = 4

// Delta op codes.
const (
	opCopy   = 0x01 // U64 base offset, U64 length
	opInsert = 0x02 // length-prefixed literal bytes
)

// deltaHeaderMax bounds the script header plus the framing of one insert op
// (magic, two length varints, op byte, blob length varint).
const deltaHeaderMax = 2 + 3*binary.MaxVarintLen64

// weakSums returns the two accumulators of the rolling hash (Adler-style)
// over p: the byte sum and the sum of its running values.
func weakSums(p []byte) (a, b uint32) {
	for _, c := range p {
		a += uint32(c)
		b += a
	}
	return a, b
}

// weakHash combines the accumulators of a deltaBlock-sized window. a stays
// below 2^16 there, so the halves do not overlap.
func weakHash(a, b uint32) uint32 { return a | b<<16 }

// deltaMix spreads the weak hash (whose entropy sits in a few middle bits of
// each half) before its top bits address the index.
const deltaMix = 0x9E3779B1

// deltaIndex maps weak block hashes of one base buffer to block offsets.
type deltaIndex struct {
	// slots is an open-addressed table with linear probing and no deletion:
	// weak hash<<32 | block number+1, 0 = empty. Entries of one hash share a
	// home slot, so a probe meets them in insertion (= base offset) order.
	slots []uint64
	// filter holds one bit per mixed hash prefix, set for every indexed
	// block and tested before any probe. It resolves 16x finer than slots.
	filter                 []uint64
	slotShift, filterShift uint32
}

// deltaIndexPool recycles index memory: a Delta call allocates nothing but
// its output in the steady state.
var deltaIndexPool = sync.Pool{New: func() any { return new(deltaIndex) }}

// maxPooledIndexSlots caps the table a released index may park in the pool
// (1 MiB of slots, a 2 MiB base); larger one-off indexes are dropped.
const maxPooledIndexSlots = 1 << 17

func (ix *deltaIndex) release() {
	if len(ix.slots) > maxPooledIndexSlots {
		ix.slots, ix.filter = nil, nil
	}
	deltaIndexPool.Put(ix)
}

// build indexes base by weak hash over non-overlapping blocks, keeping the
// first deltaCandidates blocks of each hash. The table is at most half full,
// so every probe ends at an empty slot.
func (ix *deltaIndex) build(base []byte) {
	blocks := len(base) / deltaBlock
	slotBits := uint32(bits.Len(uint(2*blocks - 1)))
	filterBits := slotBits + 4
	if filterBits < 6 {
		filterBits = 6
	}
	ix.slotShift, ix.filterShift = 32-slotBits, 32-filterBits
	ix.slots = zeroed(ix.slots, 1<<slotBits)
	ix.filter = zeroed(ix.filter, 1<<(filterBits-6))
	mask := uint32(len(ix.slots) - 1)
	for blk := 0; blk < blocks; blk++ {
		h := weakHash(weakSums(base[blk*deltaBlock : (blk+1)*deltaBlock]))
		m := h * deltaMix
		same := 0
		for pos := m >> ix.slotShift; ; pos = (pos + 1) & mask {
			e := ix.slots[pos]
			if e == 0 {
				ix.slots[pos] = uint64(h)<<32 | uint64(blk+1)
				f := m >> ix.filterShift
				ix.filter[f>>6] |= 1 << (f & 63)
				break
			}
			if uint32(e>>32) == h {
				if same++; same == deltaCandidates {
					break
				}
			}
		}
	}
}

// zeroed returns s resized to n zero words, reusing its memory when it fits.
func zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// mayHold is the prefilter: false means no indexed block has weak hash h.
// It is all a target byte that cannot match pays, so it must stay small
// enough to inline into the scan loops.
func (ix *deltaIndex) mayHold(h uint32) bool {
	f := h * deltaMix >> ix.filterShift
	return ix.filter[f>>6]&(1<<(f&63)) != 0
}

// probe returns the offset of the first indexed base block equal to win (a
// deltaBlock-sized window whose weak hash is h), or -1.
func (ix *deltaIndex) probe(h uint32, base, win []byte) int {
	mask := uint32(len(ix.slots) - 1)
	for pos := h * deltaMix >> ix.slotShift; ; pos = (pos + 1) & mask {
		e := ix.slots[pos]
		if e == 0 {
			return -1
		}
		if uint32(e>>32) == h {
			off := (int(uint32(e)) - 1) * deltaBlock
			if bytes.Equal(base[off:off+deltaBlock], win) {
				return off
			}
		}
	}
}

// Futility pre-pass. A full scan of an unrelated pair is the matcher's most
// expensive outcome and buys nothing, so targets of at least futileMinTarget
// bytes are first sampled: futileSamples evenly spaced windows, each rolled
// across one whole block of alignments (a target region copied from the base
// at any shift contains exactly one alignment that coincides with an indexed
// block). A sample hits when one alignment verifies against the base. Fewer
// than futileHits hits puts the copyable share at a few percent — the shared
// encoding header of two objects of one type scores one or two — and the
// matcher gives up. A false give-up costs one full transfer that a script
// would have undercut by a few percent; a related pair passes on its first
// samples.
const (
	futileSamples   = 64
	futileHits      = 4
	futileMinTarget = futileSamples * 2 * deltaBlock
)

// futile reports whether the sampled coverage of target by base blocks says
// a script cannot beat the target by a useful margin.
func (ix *deltaIndex) futile(base, target []byte) bool {
	span := len(target) - 2*deltaBlock + 1
	hits := 0
	for k := 0; k < futileSamples; k++ {
		i := k * span / futileSamples
		a, b := weakSums(target[i : i+deltaBlock])
		for end := i + deltaBlock; i < end; i++ {
			if h := weakHash(a, b); ix.mayHold(h) && ix.probe(h, base, target[i:i+deltaBlock]) >= 0 {
				if hits++; hits == futileHits {
					return false
				}
				break
			}
			out := uint32(target[i])
			a += uint32(target[i+deltaBlock]) - out
			b += a - deltaBlock*out
		}
	}
	return true
}

// deltaIndexFor returns the built index of base when block matching against
// target is worth running, nil when the inputs are too short to match or the
// pre-pass gave up. The caller releases a non-nil index.
func deltaIndexFor(base, target []byte) *deltaIndex {
	if len(base) < deltaBlock || len(target) < deltaBlock {
		return nil
	}
	ix := deltaIndexPool.Get().(*deltaIndex)
	ix.build(base)
	if len(target) >= futileMinTarget && ix.futile(base, target) {
		ix.release()
		return nil
	}
	return ix
}

func deltaHeader(w *Writer, base, target []byte) {
	w.Byte(deltaMagic)
	w.U64(uint64(len(base)))
	w.U64(uint64(len(target)))
}

// scan appends the ops transforming base into target: the target is walked
// with the rolling window, every verified block hit is extended forward as
// far as the buffers agree and emitted as a copy, everything between copies
// as one insert.
func (ix *deltaIndex) scan(w *Writer, base, target []byte) {
	flushLit := func(lo, hi int) {
		if lo < hi {
			w.Byte(opInsert)
			w.Blob(target[lo:hi])
		}
	}
	last := len(target) - deltaBlock // last window start
	lit := 0                         // start of the pending literal run
	i := 0
	a, b := weakSums(target[:deltaBlock])
	for i <= last {
		off := -1
		if h := weakHash(a, b); ix.mayHold(h) {
			off = ix.probe(h, base, target[i:i+deltaBlock])
		}
		if off >= 0 {
			n := deltaBlock + commonPrefix(base[off+deltaBlock:], target[i+deltaBlock:])
			flushLit(lit, i)
			w.Byte(opCopy)
			w.U64(uint64(off))
			w.U64(uint64(n))
			i += n
			lit = i
			if i <= last {
				a, b = weakSums(target[i : i+deltaBlock])
			}
			continue
		}
		// Slide the window one byte.
		out := uint32(target[i])
		i++
		if i <= last {
			a += uint32(target[i+deltaBlock-1]) - out
			b += a - deltaBlock*out
		}
	}
	flushLit(lit, len(target))
}

// commonPrefix returns the length of the longest common prefix of x and y.
func commonPrefix(x, y []byte) int {
	if len(y) < len(x) {
		x = x[:len(y)]
	}
	n := 0
	for ; n+8 <= len(x); n += 8 {
		if d := binary.LittleEndian.Uint64(x[n:]) ^ binary.LittleEndian.Uint64(y[n:]); d != 0 {
			return n + bits.TrailingZeros64(d)/8
		}
	}
	for n < len(x) && x[n] == y[n] {
		n++
	}
	return n
}

// Delta computes an edit script transforming base into target. It always
// succeeds; when the inputs share nothing — or too little for the futility
// pre-pass to notice — the script degenerates to one insert of the whole
// target (len(target)+overhead bytes), so callers should compare len(delta)
// against len(target) and ship whichever is smaller.
func Delta(base, target []byte) []byte {
	ix := deltaIndexFor(base, target)
	if ix == nil {
		w := Writer{buf: make([]byte, 0, deltaHeaderMax+len(target))}
		deltaHeader(&w, base, target)
		if len(target) > 0 {
			w.Byte(opInsert)
			w.Blob(target)
		}
		return w.buf
	}
	w := Writer{buf: make([]byte, 0, 64+len(target)/8)}
	deltaHeader(&w, base, target)
	ix.scan(&w, base, target)
	ix.release()
	return w.buf
}

// DeltaPooled is Delta for callers that copy the script into a message and
// drop it: the script comes in a pooled writer the caller must Free, and a
// script that would not be smaller than target is not produced at all — nil
// means "ship the target".
func DeltaPooled(base, target []byte) *Writer {
	ix := deltaIndexFor(base, target)
	if ix == nil {
		return nil
	}
	w := GetWriter(64 + len(target)/8)
	deltaHeader(w, base, target)
	ix.scan(w, base, target)
	ix.release()
	if len(w.buf) >= len(target) {
		w.Free()
		return nil
	}
	return w
}

// ApplyDelta reconstructs the target buffer from base and a delta produced by
// Delta. It fails with ErrDelta when the script is malformed, references
// ranges outside base, was computed against a base of a different length, or
// does not produce exactly the declared target length. Content correctness is
// the caller's to verify (content hash); see the package comment above.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	r := NewReader(delta)
	if r.Byte() != deltaMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrDelta)
	}
	baseLen := r.U64()
	targetLen := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrDelta, err)
	}
	if baseLen != uint64(len(base)) {
		return nil, fmt.Errorf("%w: computed against a %d-byte base, applied to %d bytes", ErrDelta, baseLen, len(base))
	}
	if targetLen > uint64(len(base)+len(delta))*maxExpansion {
		return nil, fmt.Errorf("%w: declared target %d bytes implausibly large", ErrDelta, targetLen)
	}
	out := make([]byte, 0, targetLen)
	for r.Remaining() > 0 {
		switch op := r.Byte(); op {
		case opCopy:
			off, n := r.U64(), r.U64()
			// Overflow-safe bounds check: off and n are attacker-controlled
			// varints, so off+n must not be allowed to wrap.
			if r.Err() != nil || n == 0 || off > uint64(len(base)) || n > uint64(len(base))-off {
				return nil, fmt.Errorf("%w: copy [%d,+%d) outside %d-byte base", ErrDelta, off, n, len(base))
			}
			if uint64(len(out))+n > targetLen {
				return nil, fmt.Errorf("%w: output overruns declared length", ErrDelta)
			}
			out = append(out, base[off:off+n]...)
		case opInsert:
			lit := r.Blob()
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: truncated insert", ErrDelta)
			}
			if uint64(len(out))+uint64(len(lit)) > targetLen {
				return nil, fmt.Errorf("%w: output overruns declared length", ErrDelta)
			}
			out = append(out, lit...)
		default:
			return nil, fmt.Errorf("%w: unknown op 0x%02x", ErrDelta, op)
		}
	}
	if uint64(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: produced %d bytes, declared %d", ErrDelta, len(out), targetLen)
	}
	return out, nil
}

// maxExpansion bounds how much larger than its inputs a declared target may
// be before ApplyDelta refuses to allocate (corrupt-header defense).
const maxExpansion = 64
