package catalog

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"concord/internal/binenc"
)

// HashSize is the length in bytes of a content hash.
const HashSize = sha256.Size

// HashEncoded returns the content hash of an object's canonical encoding
// (EncodeObject output). Because the encoding is deterministic — map keys
// sorted, no per-process state — equal objects hash equally on every
// machine, which is what lets the checkout/checkin protocol negotiate
// "do you already have these bytes" by hash alone (DESIGN.md §4).
func HashEncoded(enc []byte) []byte {
	h := sha256.Sum256(enc)
	return h[:]
}

// HashObject encodes the object canonically and returns its content hash.
func HashObject(o *Object) ([]byte, error) {
	enc, err := EncodeObject(o)
	if err != nil {
		return nil, err
	}
	return HashEncoded(enc), nil
}

// objFmtV1 tags the hand-rolled binary object format (see binenc). The
// previous gob format always started with a small type-definition length,
// so the tag also guards against decoding stale gob buffers.
const objFmtV1 = 0xC1

// EncodeObject serializes an object for durable storage or transmission.
// The result is sized exactly (its capacity is its length): the object is
// encoded into a pooled writer and copied out once, so a large payload
// costs one allocation of its own size, not a doubling series.
func EncodeObject(o *Object) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("catalog: encode nil object")
	}
	w := binenc.GetWriter(64)
	w.Byte(objFmtV1)
	encodeObjectInto(w, o)
	out := make([]byte, len(w.Bytes()))
	copy(out, w.Bytes())
	w.Free()
	return out, nil
}

// encodeObjectInto writes one object (recursively). Map keys are sorted so
// the encoding is deterministic — log records and staged checkins of the
// same object are byte-identical.
func encodeObjectInto(w *binenc.Writer, o *Object) {
	w.Str(o.Type)
	attrs := make([]string, 0, len(o.Attrs))
	for k := range o.Attrs {
		attrs = append(attrs, k)
	}
	sort.Strings(attrs)
	w.U64(uint64(len(attrs)))
	for _, k := range attrs {
		v := o.Attrs[k]
		w.Str(k)
		w.Byte(byte(v.Kind))
		switch v.Kind {
		case KindInt:
			w.I64(v.I)
		case KindFloat:
			w.F64(v.F)
		case KindString:
			w.Str(v.S)
		case KindBool:
			w.Bool(v.B)
		}
	}
	slots := make([]string, 0, len(o.Parts))
	for k := range o.Parts {
		slots = append(slots, k)
	}
	sort.Strings(slots)
	w.U64(uint64(len(slots)))
	for _, k := range slots {
		parts := o.Parts[k]
		w.Str(k)
		w.U64(uint64(len(parts)))
		for _, p := range parts {
			encodeObjectInto(w, p)
		}
	}
}

// DecodeObject deserializes an object produced by EncodeObject.
func DecodeObject(data []byte) (*Object, error) {
	r := binenc.NewReader(data)
	if r.Byte() != objFmtV1 {
		return nil, fmt.Errorf("catalog: decode object: unknown format")
	}
	o := decodeObjectFrom(r, 0)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("catalog: decode object: %w", err)
	}
	if o == nil {
		return nil, fmt.Errorf("catalog: decode object: empty")
	}
	return o, nil
}

// CheckEncoded reports whether DecodeObject would accept data, walking the
// encoding without building the object: no allocation, and strings are
// skipped rather than copied. Restart uses it as the validity check of
// payloads it keeps only as bytes.
func CheckEncoded(data []byte) error {
	r := binenc.NewReader(data)
	if r.Byte() != objFmtV1 {
		return fmt.Errorf("catalog: decode object: unknown format")
	}
	ok := skipObject(r, 0)
	if err := r.Err(); err != nil {
		return fmt.Errorf("catalog: decode object: %w", err)
	}
	if !ok {
		return fmt.Errorf("catalog: decode object: empty")
	}
	return nil
}

// skipObject is decodeObjectFrom without the object: it reads exactly what
// decodeObjectFrom reads and fails exactly where it returns nil.
func skipObject(r *binenc.Reader, depth int) bool {
	if depth > maxObjectDepth {
		return false
	}
	r.BlobView() // type
	nAttrs := r.U64()
	for i := uint64(0); i < nAttrs && r.Err() == nil; i++ {
		r.BlobView() // name
		switch Kind(r.Byte()) {
		case KindInt:
			r.I64()
		case KindFloat:
			r.F64()
		case KindString:
			r.BlobView()
		case KindBool:
			r.Bool()
		}
	}
	nSlots := r.U64()
	for i := uint64(0); i < nSlots && r.Err() == nil; i++ {
		r.BlobView() // slot
		nParts := r.U64()
		if nParts > uint64(r.Remaining()) {
			return false
		}
		for j := uint64(0); j < nParts && r.Err() == nil; j++ {
			if !skipObject(r, depth+1) {
				return false
			}
		}
	}
	return r.Err() == nil
}

// maxObjectDepth bounds recursion on corrupt input.
const maxObjectDepth = 64

func decodeObjectFrom(r *binenc.Reader, depth int) *Object {
	if depth > maxObjectDepth {
		return nil
	}
	o := &Object{
		Type:  r.Str(),
		Attrs: make(map[string]Value),
		Parts: make(map[string][]*Object),
	}
	nAttrs := r.U64()
	for i := uint64(0); i < nAttrs && r.Err() == nil; i++ {
		k := r.Str()
		v := Value{Kind: Kind(r.Byte())}
		switch v.Kind {
		case KindInt:
			v.I = r.I64()
		case KindFloat:
			v.F = r.F64()
		case KindString:
			v.S = r.Str()
		case KindBool:
			v.B = r.Bool()
		}
		o.Attrs[k] = v
	}
	nSlots := r.U64()
	for i := uint64(0); i < nSlots && r.Err() == nil; i++ {
		k := r.Str()
		nParts := r.U64()
		if nParts > uint64(r.Remaining()) {
			return nil
		}
		parts := make([]*Object, 0, nParts)
		for j := uint64(0); j < nParts && r.Err() == nil; j++ {
			p := decodeObjectFrom(r, depth+1)
			if p == nil {
				return nil
			}
			parts = append(parts, p)
		}
		o.Parts[k] = parts
	}
	if r.Err() != nil {
		return nil
	}
	return o
}
