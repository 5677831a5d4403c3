package binenc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

const textAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// encodedObject imitates the catalog encoding the delta codec is fed: a short
// attribute header every object of a type shares, then the payload text.
func encodedObject(rng *rand.Rand, size int) []byte {
	b := append(make([]byte, 0, size+80),
		"\x01\x07netlist\x02\x04cell\x03\x05probe\x04data\x03 shared attribute header of the type, 64+ bytes long"...)
	for i := 0; i < size; i++ {
		b = append(b, textAlphabet[rng.Intn(64)])
	}
	return b
}

func randomBytes(rng *rand.Rand, size int) []byte {
	b := make([]byte, size)
	rng.Read(b)
	return b
}

// editRuns overwrites about share of p in the given number of scattered runs.
func editRuns(rng *rand.Rand, p []byte, share float64, runs int) []byte {
	out := append([]byte(nil), p...)
	run := max(1, int(float64(len(p))*share)/runs)
	for k := 0; k < runs; k++ {
		off := rng.Intn(len(out) - run)
		for j := off; j < off+run; j++ {
			out[j] = textAlphabet[rng.Intn(64)]
		}
	}
	return out
}

// splice replaces p[at:at+del] with ins fresh bytes, shifting the tail.
func splice(rng *rand.Rand, p []byte, at, del, ins int) []byte {
	out := append([]byte(nil), p[:at]...)
	out = append(out, randomBytes(rng, ins)...)
	return append(out, p[at+del:]...)
}

// gaveUp reports whether Delta(base, target) skips its full scan.
func gaveUp(base, target []byte) bool {
	ix := deltaIndexFor(base, target)
	if ix == nil {
		return true
	}
	ix.release()
	return false
}

// TestDeltaMatchesReference is the differential test of the flat-index
// matcher: over a seeded corpus of related pairs every script that comes out
// of a full scan is byte-identical to the reference matcher's, related pairs
// are never given up on, and everything round-trips.
func TestDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type pair struct {
		name         string
		base, target []byte
		mustScan     bool // a pair this related must pass the pre-pass
	}
	var corpus []pair
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		for _, gen := range []struct {
			name string
			make func(*rand.Rand, int) []byte
		}{{"text", encodedObject}, {"binary", randomBytes}} {
			base := gen.make(rng, size)
			name := fmt.Sprintf("%s/%dK", gen.name, size>>10)
			for _, share := range []float64{0.01, 0.10, 0.50} {
				corpus = append(corpus,
					pair{fmt.Sprintf("%s/edit%.0f%%x4", name, share*100), base, editRuns(rng, base, share, 4), true},
					pair{fmt.Sprintf("%s/edit%.0f%%x64", name, share*100), base, editRuns(rng, base, share, 64), share < 0.5},
					// Single-byte edits this dense leave few whole blocks.
					pair{fmt.Sprintf("%s/edit%.0f%%x1", name, share*100), base, editRuns(rng, base, share, int(float64(size)*share)), false},
				)
			}
			corpus = append(corpus,
				pair{name + "/insert-front", base, splice(rng, base, 100, 0, 21), true},
				pair{name + "/insert-odd", base, splice(rng, base, size/3, 0, 1), true},
				pair{name + "/delete", base, splice(rng, base, size/2, 333, 0), true},
				pair{name + "/replace", base, splice(rng, base, size/4, 500, 77), true},
				pair{name + "/identical", base, base, true},
				pair{name + "/truncated", base, base[:size/2], true},
				pair{name + "/grown", base[:size/2], base, false},
				pair{name + "/doubled", base, append(append([]byte(nil), base...), base...), true},
			)
		}
	}
	// Degenerate content: every block shares one weak hash, so the
	// candidate bound and probe order decide the script.
	zeros := make([]byte, 8<<10)
	corpus = append(corpus,
		pair{"zeros", zeros, zeros[:5000], true},
		pair{"periodic", bytes.Repeat([]byte("abcdefgh"), 1024), bytes.Repeat([]byte("abcdefgh"), 1000), true},
	)
	for i, c := range edgeShapes() {
		corpus = append(corpus, pair{fmt.Sprintf("edge%d", i), c[0], c[1], false})
	}

	scanned := 0
	for _, p := range corpus {
		got := roundtrip(t, p.base, p.target)
		short := len(p.base) < deltaBlock || len(p.target) < deltaBlock
		if !short && gaveUp(p.base, p.target) {
			if p.mustScan {
				t.Errorf("%s: pre-pass gave up on a related pair", p.name)
			}
			if len(got) < len(p.target) {
				t.Errorf("%s: give-up script is %d bytes for a %d-byte target", p.name, len(got), len(p.target))
			}
			continue
		}
		scanned++
		if want := referenceDelta(p.base, p.target); !bytes.Equal(got, want) {
			t.Errorf("%s: script differs from the reference matcher (%d vs %d bytes)", p.name, len(got), len(want))
		}
		pooled := DeltaPooled(p.base, p.target)
		switch {
		case len(got) < len(p.target) && (pooled == nil || !bytes.Equal(pooled.Bytes(), got)):
			t.Errorf("%s: DeltaPooled differs from Delta", p.name)
		case len(got) >= len(p.target) && pooled != nil:
			t.Errorf("%s: DeltaPooled kept a script no smaller than the target", p.name)
		}
		if pooled != nil {
			pooled.Free()
		}
	}
	if scanned < len(corpus)*3/4 {
		t.Fatalf("only %d of %d pairs reached the full scan", scanned, len(corpus))
	}
}

// unrelatedPairs are the shapes the pre-pass exists for: nothing in common,
// and nothing in common beyond a shared leading run (the encoding header of
// the object type: 64 bytes, then 1 % of the target).
func unrelatedPairs(rng *rand.Rand) (pairs [][2][]byte) {
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10} {
		pairs = append(pairs,
			[2][]byte{randomBytes(rng, size), randomBytes(rng, size)},
			[2][]byte{encodedObject(rng, size), encodedObject(rng, size)},
			[2][]byte{randomBytes(rng, size/2), encodedObject(rng, size)},
		)
		prefix := randomBytes(rng, max(64, size/100))
		pairs = append(pairs, [2][]byte{
			append(append([]byte(nil), prefix...), randomBytes(rng, size)...),
			append(append([]byte(nil), prefix...), randomBytes(rng, size)...),
		})
	}
	return pairs
}

// TestDeltaGivesUpOnUnrelatedPairs: the pre-pass must recognise every
// unrelated pair — a shared header alone does not pass it — and the script it
// falls back to is still a valid one that rebuilds exactly the target.
func TestDeltaGivesUpOnUnrelatedPairs(t *testing.T) {
	for i, p := range unrelatedPairs(rand.New(rand.NewSource(13))) {
		base, target := p[0], p[1]
		if !gaveUp(base, target) {
			t.Errorf("pair %d: pre-pass did not give up", i)
		}
		d := roundtrip(t, base, target)
		if len(d) < len(target) || len(d) > len(target)+deltaHeaderMax {
			t.Errorf("pair %d: give-up script is %d bytes for a %d-byte target", i, len(d), len(target))
		}
		if w := DeltaPooled(base, target); w != nil {
			t.Errorf("pair %d: DeltaPooled produced a %d-byte script", i, len(w.Bytes()))
		}
	}
}

// TestDeltaGiveUpAllocations pins the cost of losing: index memory comes
// from the pool, so a give-up allocates its output and nothing else, and the
// pooled variant (which has no output then) nothing at all.
func TestDeltaGiveUpAllocations(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of its Puts at
		// random, so pooled index memory is reallocated now and then.
		t.Skip("allocation counts of pooled memory are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(14))
	base, target := encodedObject(rng, 64<<10), encodedObject(rng, 64<<10)
	Delta(base, target) // size the pooled index
	if n := testing.AllocsPerRun(50, func() { Delta(base, target) }); n > 1 {
		t.Errorf("Delta give-up: %.1f allocs/op, want 1 (the script)", n)
	}
	if n := testing.AllocsPerRun(50, func() { DeltaPooled(base, target) }); n > 0 {
		t.Errorf("DeltaPooled give-up: %.1f allocs/op, want 0", n)
	}
	// A winning scan allocates its output only, too.
	near := editRuns(rng, base, 0.01, 4)
	if n := testing.AllocsPerRun(50, func() { Delta(base, near) }); n > 1 {
		t.Errorf("Delta 1%% edit: %.1f allocs/op, want 1 (the script)", n)
	}
}

var deltaSink []byte

func benchDelta(b *testing.B, base, target []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(target)))
	for b.Loop() {
		deltaSink = Delta(base, target)
	}
}

// BenchmarkDeltaMiss64K is the checkout-miss case: the workstation offered an
// unrelated base, the matcher must lose cheaply.
func BenchmarkDeltaMiss64K(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	benchDelta(b, encodedObject(rng, 64<<10), encodedObject(rng, 64<<10))
}

// BenchmarkDeltaEdit16K is the checkin case: a 1 % edit of a 16 KiB object.
func BenchmarkDeltaEdit16K(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	base := encodedObject(rng, 16<<10)
	benchDelta(b, base, editRuns(rng, base, 0.01, 4))
}

// BenchmarkDeltaEdit64K is a 1 % edit of a 64 KiB object.
func BenchmarkDeltaEdit64K(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	base := encodedObject(rng, 64<<10)
	benchDelta(b, base, editRuns(rng, base, 0.01, 4))
}
