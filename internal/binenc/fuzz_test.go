package binenc

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzDeltaApply fuzzes the delta codec from both ends. ApplyDelta consumes
// attacker-controlled bytes off the cache wire, so it must never panic or
// over-allocate on malformed scripts, must be deterministic, and — treating
// the second input as a target — Delta followed by ApplyDelta must
// reconstruct the target exactly, with the very script of the reference
// matcher whenever the full scan ran.
func FuzzDeltaApply(f *testing.F) {
	base := []byte("the quick brown fox jumps over the lazy dog, twice over: " +
		"the quick brown fox jumps over the lazy dog")
	target := []byte("the quick red fox jumps over the lazy dog, twice over: " +
		"the quick brown fox leaps over the lazy dog!")
	f.Add([]byte{}, []byte{})
	f.Add(base, Delta(base, target))
	f.Add(base, Delta(base, base))
	f.Add([]byte{}, Delta(nil, target))
	// Malformed scripts: bad magic, truncated header, copy out of range,
	// declared length mismatch.
	f.Add(base, []byte{0x00})
	f.Add(base, []byte{deltaMagic, 0x01})
	f.Add(base, []byte{deltaMagic, 0x00, 0x08, opCopy, 0xFF, 0xFF})
	// Second input as a target the pre-pass gives up on: an unrelated pair
	// and a pair sharing nothing but a 64-byte prefix, both large enough to
	// be sampled; then a relative that passes it.
	rng := rand.New(rand.NewSource(7))
	big := randomBytes(rng, 2*futileMinTarget)
	f.Add(big, randomBytes(rng, 2*futileMinTarget))
	f.Add(big, append(append([]byte(nil), big[:64]...), randomBytes(rng, futileMinTarget)...))
	f.Add(big, splice(rng, big, 100, 0, 21))
	f.Fuzz(func(t *testing.T, base, delta []byte) {
		// Arbitrary script against the given base: error or success, never
		// a panic; success must be deterministic.
		out, err := ApplyDelta(base, delta)
		if err == nil {
			again, err2 := ApplyDelta(base, delta)
			if err2 != nil || !bytes.Equal(out, again) {
				t.Fatalf("ApplyDelta not deterministic: %v", err2)
			}
		}
		// The same bytes as a target: the produced script must round-trip.
		script := Delta(base, delta)
		back, err := ApplyDelta(base, script)
		if err != nil {
			t.Fatalf("ApplyDelta(Delta(base, target)): %v", err)
		}
		if !bytes.Equal(back, delta) {
			t.Fatalf("delta round trip: got %d bytes, want %d", len(back), len(delta))
		}
		// Unless the pre-pass gave up, the script is the reference matcher's.
		if len(delta) < futileMinTarget || !gaveUp(base, delta) {
			if want := referenceDelta(base, delta); !bytes.Equal(script, want) {
				t.Fatalf("script differs from the reference matcher (%d vs %d bytes)", len(script), len(want))
			}
		}
	})
}
