package binenc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// mutate returns a copy of p with n random single-byte edits.
func mutate(p []byte, n int, rng *rand.Rand) []byte {
	out := append([]byte(nil), p...)
	for i := 0; i < n; i++ {
		out[rng.Intn(len(out))] = byte(rng.Int())
	}
	return out
}

func roundtrip(t *testing.T, base, target []byte) []byte {
	t.Helper()
	d := Delta(base, target)
	got, err := ApplyDelta(base, d)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return d
}

func TestDeltaRoundtripSmallEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 64<<10)
	rng.Read(base)
	target := mutate(base, 20, rng)
	d := roundtrip(t, base, target)
	if len(d) > len(target)/5 {
		t.Fatalf("small-edit delta %d bytes, full %d — expected ≥ 5x shrink", len(d), len(target))
	}
}

func TestDeltaRoundtripInsertionShift(t *testing.T) {
	// An insertion near the front shifts everything; block matching must
	// still reuse the (unaligned) tail.
	rng := rand.New(rand.NewSource(2))
	base := make([]byte, 32<<10)
	rng.Read(base)
	target := append(append(append([]byte(nil), base[:100]...), []byte("inserted run of bytes")...), base[100:]...)
	d := roundtrip(t, base, target)
	if len(d) > len(target)/10 {
		t.Fatalf("shifted delta %d bytes for %d-byte target", len(d), len(target))
	}
}

// edgeShapes are the degenerate pairs: empty and sub-block inputs, identity,
// truncation, growth, a shifting prefix.
func edgeShapes() [][2][]byte {
	big := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(big)
	return [][2][]byte{
		{nil, nil},
		{nil, []byte("hello")},
		{[]byte("hello"), nil},
		{[]byte("short"), []byte("also short")},
		{big, big},
		{big, big[:1000]},
		{big[:1000], big},
		{big, append([]byte("prefix"), big...)},
	}
}

func TestDeltaEdgeShapes(t *testing.T) {
	for i, c := range edgeShapes() {
		base, target := c[0], c[1]
		d := Delta(base, target)
		got, err := ApplyDelta(base, d)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("case %d: mismatch", i)
		}
	}
}

func TestDeltaIdenticalIsTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]byte, 256<<10)
	rng.Read(base)
	d := roundtrip(t, base, base)
	if len(d) > 64 {
		t.Fatalf("identical-content delta is %d bytes, want O(header)", len(d))
	}
}

func TestDeltaRandomizedRoundtrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		base := make([]byte, 1+rng.Intn(8<<10))
		rng.Read(base)
		var target []byte
		switch trial % 3 {
		case 0:
			target = mutate(base, 1+rng.Intn(16), rng)
		case 1: // splice a chunk out
			lo := rng.Intn(len(base))
			hi := lo + rng.Intn(len(base)-lo)
			target = append(append([]byte(nil), base[:lo]...), base[hi:]...)
		case 2: // fresh content
			target = make([]byte, rng.Intn(4<<10))
			rng.Read(target)
		}
		roundtrip(t, base, target)
	}
}

// TestApplyDeltaWrongBaseFailsStructurally: a delta carries the length of the
// base it was computed against; applying to a different-sized base must fail
// rather than emit garbage. (Same-size wrong bases produce wrong bytes by
// design — the protocol layer catches those by content hash.)
func TestApplyDeltaWrongBaseFailsStructurally(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := make([]byte, 4096)
	rng.Read(base)
	target := mutate(base, 4, rng)
	d := Delta(base, target)
	if _, err := ApplyDelta(base[:4000], d); !errors.Is(err, ErrDelta) {
		t.Fatalf("wrong-length base: err = %v, want ErrDelta", err)
	}
}

// TestApplyDeltaCopyOverflow pins the overflow-safe bounds check: a copy op
// whose off+n wraps around uint64 must fail with ErrDelta, never panic (the
// server applies deltas from untrusted wire input).
func TestApplyDeltaCopyOverflow(t *testing.T) {
	base := bytes.Repeat([]byte("z"), 256)
	w := NewWriter(64)
	w.Byte(deltaMagic)
	w.U64(uint64(len(base))) // base length
	w.U64(16)                // declared target length
	w.Byte(opCopy)
	w.U64(^uint64(0) - 7) // off: 2^64-8
	w.U64(16)             // n: off+n wraps to 8
	if _, err := ApplyDelta(base, w.Bytes()); !errors.Is(err, ErrDelta) {
		t.Fatalf("overflowing copy: err = %v, want ErrDelta", err)
	}
}

func TestApplyDeltaCorruptScripts(t *testing.T) {
	base := bytes.Repeat([]byte("abcdefgh"), 1024)
	target := append([]byte("x"), base...)
	d := Delta(base, target)
	for _, corrupt := range [][]byte{
		nil,
		{},
		{0xFF},       // bad magic
		d[:len(d)/2], // truncated mid-script
		append(append([]byte(nil), d...), opCopy, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x01), // copy past base
	} {
		if _, err := ApplyDelta(base, corrupt); !errors.Is(err, ErrDelta) {
			t.Fatalf("corrupt %x: err = %v, want ErrDelta", corrupt[:min(8, len(corrupt))], err)
		}
	}
}
