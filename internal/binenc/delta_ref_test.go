package binenc

import "bytes"

// referenceDelta is the matcher Delta replaced, frozen as the oracle of the
// differential test: a map from weak hash to at most four block offsets, one
// map probe per target byte, no pre-pass. Whenever Delta runs its full scan
// it must emit this function's script byte for byte.
func referenceDelta(base, target []byte) []byte {
	w := NewWriter(64 + len(target)/8)
	w.Byte(deltaMagic)
	w.U64(uint64(len(base)))
	w.U64(uint64(len(target)))

	if len(base) < deltaBlock || len(target) < deltaBlock {
		if len(target) > 0 {
			w.Byte(opInsert)
			w.Blob(target)
		}
		return w.Bytes()
	}

	refHash := func(p []byte) uint32 {
		var a, b uint32
		for _, c := range p {
			a += uint32(c)
			b += a
		}
		return a | b<<16
	}
	index := make(map[uint32][]int, len(base)/deltaBlock+1)
	for off := 0; off+deltaBlock <= len(base); off += deltaBlock {
		h := refHash(base[off : off+deltaBlock])
		if cand := index[h]; len(cand) < 4 {
			index[h] = append(cand, off)
		}
	}

	var a, b uint32 // rolling accumulators over target[i:i+deltaBlock]
	roll := func(i int) {
		a, b = 0, 0
		for _, c := range target[i : i+deltaBlock] {
			a += uint32(c)
			b += a
		}
	}
	flushLit := func(lo, hi int) {
		if lo < hi {
			w.Byte(opInsert)
			w.Blob(target[lo:hi])
		}
	}

	lit := 0 // start of the pending literal run
	i := 0
	roll(i)
	for i+deltaBlock <= len(target) {
		matched := false
		for _, off := range index[a|b<<16] {
			if !bytes.Equal(base[off:off+deltaBlock], target[i:i+deltaBlock]) {
				continue
			}
			n := deltaBlock
			for off+n < len(base) && i+n < len(target) && base[off+n] == target[i+n] {
				n++
			}
			flushLit(lit, i)
			w.Byte(opCopy)
			w.U64(uint64(off))
			w.U64(uint64(n))
			i += n
			lit = i
			if i+deltaBlock <= len(target) {
				roll(i)
			}
			matched = true
			break
		}
		if !matched {
			out := uint32(target[i])
			a -= out
			b -= uint32(deltaBlock) * out
			i++
			if i+deltaBlock <= len(target) {
				a += uint32(target[i+deltaBlock-1])
				b += a
			}
		}
	}
	flushLit(lit, len(target))
	return w.Bytes()
}
