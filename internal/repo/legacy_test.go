package repo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"concord/internal/binenc"
)

// The payload layouts older builds wrote, kept here as writers so the
// loader's reading of them stays tested: a base in the CCSNAP01 layout, and
// a delta in the CCINCR01 layout with one record group per dirty index
// shard.

// writeLegacyBase streams a rebase cut as a CCSNAP01 base: header, every
// record in Seq order, metadata store.
func writeLegacyBase(c *snapCut, pw *payloadWriter) {
	pw.w.Str(snapMagic)
	pw.w.U64(uint64(c.snapLSN))
	pw.w.U64(c.seq)
	pw.w.Strs(c.daNames)
	pw.records(c.records())
	pw.meta(c.meta)
}

// legacyGroups returns the records a cut writes grouped by index shard, in
// shard order, each group in Seq order.
func legacyGroups(c *snapCut) (shards []int, groups [][]*dovEntry) {
	for i, s := range c.shards {
		if s == nil {
			continue
		}
		var recs []*dovEntry
		for _, e := range *s {
			if c.full || e.gen > c.since[i] {
				recs = append(recs, e)
			}
		}
		if len(recs) > 0 {
			sortBySeq(recs)
			shards, groups = append(shards, i), append(groups, recs)
		}
	}
	return shards, groups
}

// writeLegacyDelta streams a delta cut in the CCINCR01 layout with one
// record group per dirty index shard.
func writeLegacyDelta(c *snapCut, pw *payloadWriter) {
	pw.w.Str(incMagic)
	pw.w.U64(uint64(c.snapLSN))
	pw.w.U64(uint64(c.prevLSN))
	pw.w.U64(c.seq)
	pw.w.Strs(c.daNames)
	pw.w.Bool(c.meta != nil)
	if c.meta != nil {
		pw.meta(c.meta)
	}
	shards, groups := legacyGroups(c)
	pw.w.U64(uint64(len(groups)))
	for i, recs := range groups {
		pw.w.U64(uint64(shards[i]))
		pw.records(recs)
	}
}

// nextCut captures the cut r's next checkpoint takes, if it is a rebase
// when full is set and a delta otherwise.
func nextCut(t testing.TB, r *Repository, full bool) *snapCut {
	t.Helper()
	r.ckptMu.Lock()
	r.mu.Lock()
	c := r.captureCutLocked(full)
	r.mu.Unlock()
	r.ckptMu.Unlock()
	if c == nil {
		t.Fatal("nextCut: the log has not grown since the last checkpoint")
	}
	return c
}

// renderPayload returns the bytes of one payload file streamed by encode,
// CRC trailer included. Cold records read their payloads from the chain
// files of the repository the cut came from, so it must still be open.
func renderPayload(t testing.TB, encode func(*payloadWriter)) []byte {
	t.Helper()
	var buf bytes.Buffer
	pw := newPayloadWriter(&buf)
	encode(pw)
	if err := pw.flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write(pw.trailer())
	return buf.Bytes()
}

// payloadMagic reads the layout magic a payload file starts with.
func payloadMagic(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binenc.NewReader(data).Str()
}

// TestParentLayoutChainOpens: a chain in the layouts older builds wrote — a
// CCSNAP01 base and CCINCR01 deltas with one record group per dirty shard —
// opens to the same state, and its next rebase writes the one layout this
// build writes and collects the old files.
func TestParentLayoutChainOpens(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CheckpointMaxChain: 3}
	r := openRepoOpts(t, dir, opts)
	legacy := make(map[string][]byte)
	// checkpoint takes r's next checkpoint and renders the same cut in the
	// older layout; the file is swapped in once r is closed.
	checkpoint := func(full bool) *snapCut {
		t.Helper()
		c := nextCut(t, r, full)
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		render := writeLegacyDelta
		if full {
			render = writeLegacyBase
		}
		legacy[snapFileName(c.snapLSN, full)] = renderPayload(t, func(pw *payloadWriter) { render(c, pw) })
		return c
	}
	churn(t, r, "a-", 60, 30)
	checkpoint(true)
	for i, tag := range []string{"b-", "c-"} {
		churn(t, r, tag, 20, 10)
		if shards, _ := legacyGroups(checkpoint(false)); len(shards) < 2 {
			t.Fatalf("delta %d spans %d shard groups, want several", i, len(shards))
		}
	}
	if n, _ := r.SnapshotChain(); n != 3 {
		t.Fatalf("chain of %d, want a base and two deltas", n)
	}
	want := digest(t, r)
	r.Close()
	for name, data := range legacy {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r2 := openRepoOpts(t, dir, opts)
	if n, _ := r2.SnapshotChain(); n != 3 {
		t.Fatalf("older-layout chain loaded %d elements, want 3", n)
	}
	if got := digest(t, r2); got != want {
		t.Fatalf("older-layout chain opens to a different state:\n--- want\n%s--- got\n%s", want, got)
	}
	churn(t, r2, "d-", 4, 4)
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := snapFiles(t, dir)
	if len(files) != 1 || files[0] != snapFileName(r2.SnapshotLSN(), true) {
		t.Fatalf("payload files after the rebase = %v, want only the new base", files)
	}
	if m := payloadMagic(t, filepath.Join(dir, files[0])); m != incMagic {
		t.Fatalf("rebase of an older-layout chain wrote a %q base, want %q", m, incMagic)
	}
	want = digest(t, r2)
	r2.Close()
	if got := digest(t, openRepoOpts(t, dir, opts)); got != want {
		t.Fatalf("rebase of an older-layout chain lost state:\n--- want\n%s--- got\n%s", want, got)
	}
}
