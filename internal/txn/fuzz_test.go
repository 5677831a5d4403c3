package txn

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/version"
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

// FuzzWireDecode throws arbitrary bytes at the decoders the server-TM runs
// on network input (begin, checkout, stage, release) and the workstation
// runs on the server's answers (checkout response, cache invalidation).
// Nothing may panic, and whatever decodes must re-encode to bytes that
// decode to the same value.
func FuzzWireDecode(f *testing.F) {
	hash := bytes.Repeat([]byte{0xCD}, 32)
	meta := dovMeta{ID: "ws/dop/v2", DOT: "floorplan", DA: "da1", Parents: []version.ID{"v0", "v1"}, Status: version.StatusWorking, Fulfilled: []string{"area-limit"}}
	dov := dovWire{ID: "ws/dop/v2", DOT: "floorplan", DA: "da1", Parents: []version.ID{"v1"}, Object: []byte("payload"), Status: version.StatusPropagated}
	f.Add(beginMsg{DOP: "dop-1", DA: "da1", WS: "ws1"}.encode())
	f.Add(checkoutMsg{DOP: "dop-1", DA: "da1", DOV: "v1", Derive: true, WS: "ws1", CBAddr: "127.0.0.1:7000", Epoch: 3, BaseID: "v0", BaseHash: hash}.encode())
	f.Add(stageMsg{DOP: "dop-1", TxID: "dop-1/ci1", DOV: dov, Root: true, Hash: hash, WS: "ws1", CBAddr: "cb", Epoch: 2}.encode())
	f.Add(stageMsg{DOP: "dop-1", TxID: "dop-1/ci2", DOV: dovWire{ID: "v3", DOT: "floorplan", DA: "da1"}, Hash: hash, BaseID: "v2", BaseHash: hash, Delta: []byte{1, 2, 3}}.encode())
	f.Add(releaseMsg{DOP: "dop-1", DOV: "v1"}.encode())
	f.Add(invalidateMsg{Epoch: 7, Entries: []invalidation{{DOV: "v1", Kind: invStatus, Status: version.StatusInvalid}, {DOV: "v2", Kind: invSuperseded, By: "v3"}}}.encode())
	f.Add(checkoutResp{Mode: coFull, DOV: dov, Hash: hash}.encode())
	f.Add(checkoutResp{Mode: coNotModified, Meta: meta, Hash: hash, BumpEpoch: true}.encode())
	f.Add(checkoutResp{Mode: coDelta, Meta: meta, Hash: hash, BaseID: "v1", Delta: []byte{9, 8, 7}}.encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, "begin", data, decodeBegin, beginMsg.encode)
		roundTrip(t, "checkout", data, decodeCheckout, checkoutMsg.encode)
		roundTrip(t, "stage", data, decodeStage, stageMsg.encode)
		roundTrip(t, "release", data, decodeRelease, releaseMsg.encode)
		roundTrip(t, "invalidate", data, decodeInvalidate, invalidateMsg.encode)
		roundTrip(t, "checkout response", data, decodeCheckoutResp, checkoutResp.encode)
	})
}

// roundTrip checks one wire decoder on data: if it accepts, the message must
// re-encode to bytes that decode to an equal value. Decoders return nil for
// empty slices, so reflect.DeepEqual compares values, not representations.
func roundTrip[M any](t *testing.T, name string, data []byte, decode func([]byte) (M, error), encode func(M) []byte) {
	t.Helper()
	m, err := decode(data)
	if err != nil {
		return
	}
	again, err := decode(encode(m))
	if err != nil {
		t.Fatalf("%s %+v does not re-decode: %v", name, m, err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Fatalf("%s %+v re-decodes as %+v", name, m, again)
	}
}

// FuzzCacheLogDecode throws arbitrary bytes at the workstation cache's entry
// log, as a log and as the body of one well-framed record (which reaches the
// record decoder past the CRC): nothing may panic, every entry that comes
// back must carry a payload matching its hash, and the good prefix the
// decoder reports must decode to the same entries on its own — the prefix an
// open truncates the log to.
func FuzzCacheLogDecode(f *testing.F) {
	w := binenc.NewWriter(256)
	for i, id := range []version.ID{"v0", "v1", "ws/dop/v2"} {
		enc := []byte(fmt.Sprintf("payload %d", i))
		appendEntryRecord(w, &cacheEntry{
			Meta: dovMeta{ID: id, DOT: "floorplan", DA: "da1", Parents: []version.ID{"v0"}, Status: version.StatusWorking},
			Hash: catalog.HashEncoded(enc), Enc: enc, Superseded: "v9", used: uint64(i + 1),
		})
	}
	appendTombRecord(w, "v1")
	log := w.Bytes()
	f.Add(log)
	f.Add(log[:len(log)-3])
	bad := bytes.Clone(log)
	bad[20] ^= 0x10
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0xCA})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCacheLog(t, data)
		w := binenc.NewWriter(len(data) + cacheRecHeader)
		start := beginRecord(w)
		w.Raw(data)
		endRecord(w, start)
		checkCacheLog(t, w.Bytes())
	})
}

// checkCacheLog decodes data as an entry log and checks what comes back.
func checkCacheLog(t *testing.T, data []byte) {
	t.Helper()
	entries, good := decodeCacheLog(data)
	if good < 0 || good > len(data) {
		t.Fatalf("good prefix %d of %d bytes", good, len(data))
	}
	for id, e := range entries {
		if e.Meta.ID != id || !bytes.Equal(catalog.HashEncoded(e.Enc), e.Hash) {
			t.Fatalf("entry %s does not verify", id)
		}
	}
	again, n := decodeCacheLog(data[:good])
	if n != good || len(again) != len(entries) {
		t.Fatalf("prefix of %d bytes re-decodes to %d bytes, %d entries (want %d)", good, n, len(again), len(entries))
	}
	for id, e := range entries {
		if a, ok := again[id]; !ok || !bytes.Equal(a.Hash, e.Hash) || a.used != e.used || a.size != e.size {
			t.Fatalf("entry %s differs when its prefix is decoded alone", id)
		}
	}
}
