package txn

import (
	"bytes"
	"testing"

	"concord/internal/binenc"
)

// FuzzClientRecordDecode throws arbitrary bytes at the decoders of the client
// recovery records (client-tm.wal): nothing may panic or allocate by a count
// the bytes do not back, and whatever decodes must re-encode to a record
// that decodes to the same value — replay after a restart reads what the
// previous incarnation meant.
func FuzzClientRecordDecode(f *testing.F) {
	hash := bytes.Repeat([]byte{0xAB}, 32)
	seed := func(encodeInto func(*binenc.Writer)) {
		w := binenc.NewWriter(128)
		encodeInto(w)
		f.Add(w.Bytes())
	}
	seed(inputRef{ID: "ws/dop-0001/v1", Hash: hash, Derive: true}.encodeInto)
	seed(ctxRecord{DA: "da1", Phase: PhaseActive}.encodeInto)
	seed(ctxRecord{
		DA: "da1", Phase: PhaseSuspended, Checkins: 3,
		Inputs:     []inputRef{{ID: "v0", Hash: hash}, {ID: "v1", Hash: hash, Derive: true}},
		Workspace:  []byte("workspace"),
		Savepoints: []namedSnapshot{{Name: "a", Workspace: []byte("older")}, {Name: "b"}},
	}.encodeInto)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		if in, err := decodeInputAdded(data); err == nil {
			w := binenc.NewWriter(len(data))
			in.encodeInto(w)
			again, err := decodeInputAdded(w.Bytes())
			if err != nil || again.ID != in.ID || !bytes.Equal(again.Hash, in.Hash) || again.Derive != in.Derive {
				t.Fatalf("input-added %+v re-decodes as %+v (%v)", in, again, err)
			}
		}
		if c, err := decodeContext(data); err == nil {
			w := binenc.NewWriter(len(data))
			c.encodeInto(w)
			first := bytes.Clone(w.Bytes())
			again, err := decodeContext(first)
			if err != nil {
				t.Fatalf("context %+v does not re-decode: %v", c, err)
			}
			w.Reset()
			again.encodeInto(w)
			if !bytes.Equal(first, w.Bytes()) {
				t.Fatalf("context %+v re-decodes as %+v", c, again)
			}
		}
	})
}
