package repo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedCorpus builds a real chained checkpoint and returns the raw bytes
// of its manifest and payload files — genuine CCINCR01/manifest framings as
// seeds, so the fuzzer starts from the valid format rather than discovering
// the magic by brute force — and last a CCSNAP01 base of the same state in
// the layout older builds wrote, which the loader still reads. The base
// holds enough versions that the two one-version deltas stay below its
// size, so the default rebase rule keeps all three elements in the chain.
func fuzzSeedCorpus(f *testing.F) [][]byte {
	f.Helper()
	dir := f.TempDir()
	r, err := Open(testCatalog(f), Options{Dir: dir, Sync: true, SegmentBytes: 4 << 10})
	if err != nil {
		f.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateGraph("da"); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r.Checkin(mkDOV(fmt.Sprintf("base-v%d", i), "da", float64(i)), true); err != nil {
			f.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		v := mkDOV(string(rune('a'+round))+"-v0", "da", float64(round))
		if err := r.Checkin(v, true); err != nil {
			f.Fatal(err)
		}
		if err := r.PutMeta("k", []byte{byte(round)}); err != nil {
			f.Fatal(err)
		}
		if err := r.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var corpus [][]byte
	for _, e := range ents {
		n := e.Name()
		if n != manifestName && !isSnapPayloadName(n) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, data)
	}
	if len(corpus) != 4 { // manifest + base + two incs
		f.Fatalf("seed corpus has %d files, want manifest+base+2 incs", len(corpus))
	}
	if err := r.PutMeta("k", []byte("legacy")); err != nil {
		f.Fatal(err)
	}
	c := nextCut(f, r, true)
	legacy := renderPayload(f, func(pw *payloadWriter) { writeLegacyBase(c, pw) })
	if _, err := readPayload(bytes.NewReader(legacy), int64(len(legacy))); err != nil {
		f.Fatalf("hand-built CCSNAP01 seed does not decode: %v", err)
	}
	return append(corpus, legacy)
}

// FuzzSnapshotDecode throws arbitrary bytes at every decoder on the recovery
// path: the manifest parser and the streaming payload decoder must never
// panic, the manifest parser must be a projection (parse∘encode∘parse =
// parse — valid prefixes of corrupted inputs reparse identically), and
// payloads the decoder accepts must decode deterministically.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range fuzzSeedCorpus(f) {
		f.Add(seed)
		if len(seed) > 8 {
			f.Add(seed[:len(seed)/2])                     // torn tail
			f.Add(append(bytes.Clone(seed), seed[:8]...)) // trailing garbage
			mut := bytes.Clone(seed)
			mut[len(mut)/3] ^= 0x40 // bit rot
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CCSNAP01"))
	f.Add([]byte("CCINCR01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Manifest: never panics, and parsing is idempotent on its own output.
		entries, epoch, valid := parseManifest(data)
		if valid > len(data) {
			t.Fatalf("manifest valid prefix %d beyond %d input bytes", valid, len(data))
		}
		re, _, _ := parseManifest(encodeManifest(entries))
		if len(re) != len(entries) {
			t.Fatalf("manifest reparse kept %d of %d entries", len(re), len(entries))
		}
		for i := range entries {
			if re[i] != entries[i] {
				t.Fatalf("manifest entry %d changed across reparse: %+v != %+v", i, re[i], entries[i])
			}
		}
		// Epoch entries survive a rebase-style re-encode alongside the chain.
		if epoch > 0 {
			re2, ep2, _ := parseManifest(encodeManifest(append([]manifestEntry{epochEntry(epoch)}, entries...)))
			if ep2 != epoch || len(re2) != len(entries) {
				t.Fatalf("epoch %d + %d entries re-encoded to epoch %d + %d entries", epoch, len(entries), ep2, len(re2))
			}
		}
		// Payloads: never panic; accepted inputs decode the same way twice.
		p1, err := readPayload(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		p2, err := readPayload(bytes.NewReader(data), int64(len(data)))
		if err != nil || p1.snapLSN != p2.snapLSN || p1.prevLSN != p2.prevLSN ||
			p1.seq != p2.seq || len(p1.recs) != len(p2.recs) || len(p1.meta) != len(p2.meta) {
			t.Fatalf("payload decode not deterministic: %v", err)
		}
	})
}
