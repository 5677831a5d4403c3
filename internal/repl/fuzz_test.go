package repl

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"concord/internal/binenc"
	"concord/internal/rpc"
	"concord/internal/wal"
)

// fuzzFrames builds genuine WAL frames by appending through a real log and
// reading the raw bytes back, so the fuzzer starts from the true framing.
func fuzzFrames(f *testing.F) []byte {
	f.Helper()
	log, err := wal.Open(f.TempDir(), wal.Options{SyncOnAppend: true})
	if err != nil {
		f.Fatal(err)
	}
	defer log.Close()
	for i := 0; i < 3; i++ {
		if _, err := log.Append(wal.RecordType(i+1), "owner", []byte("payload")); err != nil {
			f.Fatal(err)
		}
	}
	frames, _, err := log.ReadRaw(0, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	return frames
}

// FuzzReplFrameDecode throws arbitrary bytes at the replication wire
// decoders and the receiver's ship path: nothing may panic, a decodable
// batch must apply exactly its (whole-frame-validated) content, and any
// batch stamped below the standby's epoch must be refused with
// ErrStaleEpoch.
func FuzzReplFrameDecode(f *testing.F) {
	frames := fuzzFrames(f)
	seed := func(m shipMsg) {
		w := binenc.NewWriter(64 + len(m.Frames))
		encodeShip(w, m)
		f.Add(w.Bytes())
	}
	seed(shipMsg{Epoch: 5, Start: 0, Records: 3, Frames: frames})
	seed(shipMsg{Epoch: 0, Start: 128, Records: 1, Frames: frames[:len(frames)/2]})
	seed(shipMsg{Epoch: 1, Start: 0, Records: 0, Frames: nil})
	mut := bytes.Clone(frames)
	mut[len(mut)/2] ^= 0x20
	seed(shipMsg{Epoch: 2, Start: 0, Records: 3, Frames: mut})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The sibling decoder must never panic on arbitrary input.
		decodeAck(data) //nolint:errcheck

		m, err := decodeShip(data)
		if err != nil {
			return
		}
		// Round trip: decode∘encode∘decode is the identity.
		w := binenc.NewWriter(64 + len(m.Frames))
		encodeShip(w, m)
		m2, err := decodeShip(w.Bytes())
		if err != nil || m2.Epoch != m.Epoch ||
			m2.Start != m.Start || m2.Records != m.Records || !bytes.Equal(m2.Frames, m.Frames) {
			t.Fatalf("ship message round trip changed the message: %v", err)
		}
		// Frame validation is a projection and never reads past the buffer.
		valid, _ := wal.ValidFrames(m.Frames)
		if valid < 0 || valid > len(m.Frames) {
			t.Fatalf("ValidFrames returned %d of %d bytes", valid, len(m.Frames))
		}

		// Epoch fencing: a standby on a higher epoch refuses the batch.
		if m.Epoch < math.MaxUint64 {
			fol := &fakeFollower{follower: true, epoch: m.Epoch + 1}
			rec := NewReceiver(fol, ReceiverOptions{})
			if _, err := rec.Handler()(MethodShip, data); !errors.Is(err, rpc.ErrStaleEpoch) {
				t.Fatalf("batch below the standby epoch not fenced: %v", err)
			}
			if fol.ReplTail() != 0 {
				t.Fatal("fenced batch mutated the standby")
			}
		}

		// Same epoch: the handler must not panic; if it ingested anything,
		// the batch was wholly valid frames landing exactly at the tail.
		fol := &fakeFollower{follower: true, epoch: m.Epoch}
		rec := NewReceiver(fol, ReceiverOptions{})
		resp, err := rec.Handler()(MethodShip, data)
		if err == nil {
			if _, aerr := decodeAck(resp); aerr != nil {
				t.Fatalf("undecodable ack: %v", aerr)
			}
		}
		if got := int(fol.ReplTail()); got != 0 {
			if m.Start != 0 || valid != len(m.Frames) || got != len(m.Frames) {
				t.Fatalf("partial/misplaced batch ingested: tail %d, start %d, %d/%d valid",
					got, m.Start, valid, len(m.Frames))
			}
		}
	})
}
