package rpc

import (
	"bytes"
	"testing"
)

// FuzzEnvelopeDecode feeds arbitrary bytes to the request-envelope decoder:
// it must never panic, and whatever it accepts must re-frame to an envelope
// that decodes to the same header and payload with the watermark never
// above the sequence number.
func FuzzEnvelopeDecode(f *testing.F) {
	f.Add(appendEnvelope(nil, reqHeader{client: "ws1", seq: 7, watermark: 5, epoch: 2}, []byte("payload")))
	f.Add(appendEnvelope(nil, reqHeader{}, nil))
	f.Add([]byte("\x00\x03a#1payload"))
	f.Add([]byte{envMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, env []byte) {
		h, payload, err := decodeEnvelope(env)
		if err != nil {
			return
		}
		if h.watermark > h.seq {
			t.Fatalf("accepted watermark %d above sequence %d", h.watermark, h.seq)
		}
		h2, payload2, err := decodeEnvelope(appendEnvelope(nil, h, payload))
		if err != nil {
			t.Fatalf("re-framed envelope refused: %v", err)
		}
		if h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatalf("re-framed envelope decodes to (%+v, %q), want (%+v, %q)", h2, payload2, h, payload)
		}
	})
}
