package rpc

import (
	"bytes"
	"reflect"
	"testing"

	"concord/internal/binenc"
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

// FuzzTCPFrameDecode feeds arbitrary bytes to the TCP request- and
// response-frame decoders: neither may panic, and a frame either accepts
// must re-encode to a frame that decodes to the same header and chunk.
func FuzzTCPFrameDecode(f *testing.F) {
	for _, req := range []requestFrame{
		{id: 1, last: true, method: "tm/checkout", budgetMs: 300, chunk: []byte("payload")},
		{id: 2, method: "tm/stage", chunk: []byte("first chunk")},
		{id: 2, last: true, chunk: []byte("last chunk")},
	} {
		w := binenc.NewWriter(64)
		encodeRequestFrame(w, req)
		f.Add(w.Bytes())
	}
	for _, resp := range []responseFrame{
		{id: 1, last: true, chunk: []byte("reply")},
		{id: 3, last: true, isErr: true, errCode: 101, errMsg: "rpc: stale duplicate"},
		{id: 4, chunk: []byte("first reply chunk")},
	} {
		w := binenc.NewWriter(64)
		encodeResponseFrame(w, resp)
		f.Add(w.Bytes())
	}
	f.Add([]byte{frameRequest})
	f.Add([]byte{frameResponse, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFrameRoundTrip(t, body, decodeRequestFrame, encodeRequestFrame)
		checkFrameRoundTrip(t, body, decodeResponseFrame, encodeResponseFrame)
	})
}

// checkFrameRoundTrip fails t when decode accepts body but the frame it
// yields does not re-encode to one that decodes to the same frame.
func checkFrameRoundTrip[F any](t *testing.T, body []byte, decode func([]byte) (F, error), encode func(*binenc.Writer, F)) {
	t.Helper()
	fr, err := decode(body)
	if err != nil {
		return
	}
	w := binenc.NewWriter(len(body))
	encode(w, fr)
	got, err := decode(w.Bytes())
	if err != nil {
		t.Fatalf("re-encoded frame %+v refused: %v", fr, err)
	}
	if !reflect.DeepEqual(got, fr) {
		t.Fatalf("re-encoded frame decodes to %+v, want %+v", got, fr)
	}
}
