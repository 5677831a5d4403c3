package repo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapFiles lists the chain payload files currently on disk.
func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if isSnapPayloadName(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestIncrementalChainAndRebase pins the chain lifecycle: the first
// checkpoint is a full rebase, later ones append incremental deltas, the
// configured bound forces a rebase that garbage-collects the superseded
// chain, and recovery folds every shape back to the identical state.
func TestIncrementalChainAndRebase(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 4 << 10, CheckpointMaxChain: 3}
	r := openRepoOpts(t, dir, opts)

	churn(t, r, "a-", 6, 40)
	wantChain := []int{1, 2, 3, 1, 2} // full, +inc, +inc, rebase, +inc
	for step, want := range wantChain {
		if err := r.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", step, err)
		}
		if got, _ := r.SnapshotChain(); got != want {
			t.Fatalf("checkpoint %d: chain length = %d, want %d", step, got, want)
		}
		// Disk carries exactly the live chain (GC on rebase).
		if files := snapFiles(t, dir); len(files) != want {
			t.Fatalf("checkpoint %d: %d payload files on disk (%v), want %d", step, len(files), files, want)
		}
		// Every shape must recover to the identical state.
		want := digest(t, r)
		r2 := openRepoOpts(t, dir, opts)
		if got := digest(t, r2); got != want {
			t.Fatalf("checkpoint %d: chain recovery differs:\n--- want\n%s--- got\n%s", step, want, got)
		}
		r2.Close()
		// More history so the next checkpoint has a dirty cut.
		churn(t, r, fmt.Sprintf("s%d-", step), 2, 10)
	}
}

// TestIncrementalCheckpointSkipsCleanShards asserts the delta actually is a
// delta: after a full checkpoint, an update touching one DOV produces an
// incremental payload far smaller than the base.
func TestIncrementalCheckpointSkipsCleanShards(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{})
	churn(t, r, "a-", 64, 0)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, baseBytes := r.SnapshotChain()
	if err := r.SetStatus("a-v000", 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, chainBytes := r.SnapshotChain()
	inc := chainBytes - baseBytes
	if inc <= 0 || inc >= baseBytes/4 {
		t.Fatalf("one-DOV delta = %d bytes against a %d-byte base: not incremental", inc, baseBytes)
	}
}

// TestTornManifestTailRecovers appends garbage to the manifest (a torn or
// corrupted append) and asserts recovery keeps the valid prefix and loses
// nothing: the WAL mark only ever covers fsync-durable entries, so the
// garbage can only be an entry the mark does not depend on.
func TestTornManifestTailRecovers(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	churn(t, r, "a-", 6, 60)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, r, "b-", 2, 20)
	if err := r.Checkpoint(); err != nil { // incremental: manifest has 2 entries
		t.Fatal(err)
	}
	if n, _ := r.SnapshotChain(); n != 2 {
		t.Fatalf("chain length = %d, want 2", n)
	}
	want := digest(t, r)
	r.Close()

	mf := filepath.Join(dir, manifestName)
	f, err := os.OpenFile(mf, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xA5, 0xA5, 0xA5, 0xA5, 0xA5, 0x00, 0xFF, 0x17, 0x2A}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	if err := r2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := digest(t, r2); got != want {
		t.Fatalf("torn manifest tail lost state:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestOpenRejectsMarkBeyondChain is the data-loss refusal: if the manifest
// (and with it the chain's coverage) disappears while the WAL mark has
// advanced, records below the mark are unrecoverable and Open must refuse
// rather than serve a silently truncated history.
func TestOpenRejectsMarkBeyondChain(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	churn(t, r, "a-", 6, 60)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(testCatalog(t), Options{Dir: dir, Sync: true, SegmentBytes: 4 << 10})
	if err == nil || !strings.Contains(err.Error(), "beyond snapshot chain coverage") {
		t.Fatalf("Open with deleted manifest = %v, want mark-beyond-coverage refusal", err)
	}
}

// TestLegacySnapshotLoads keeps the pre-chain on-disk format readable: a
// single CCSNAP01 file named "snapshot" (no manifest) loads as a one-element
// chain, and the next checkpoint migrates it to the manifest scheme.
func TestLegacySnapshotLoads(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	churn(t, r, "a-", 6, 60)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := digest(t, r)
	files := snapFiles(t, dir)
	if len(files) != 1 || !strings.HasSuffix(files[0], ".base") {
		t.Fatalf("payload files = %v, want one base", files)
	}
	r.Close()
	// Devolve the directory to the pre-chain layout.
	if err := os.Rename(filepath.Join(dir, files[0]), filepath.Join(dir, legacySnapName)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	r2 := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	if got := digest(t, r2); got != want {
		t.Fatalf("legacy snapshot recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
	// A checkpoint migrates to the manifest scheme and drops the legacy file.
	churn(t, r2, "b-", 2, 10)
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacySnapName)); !os.IsNotExist(err) {
		t.Fatalf("legacy snapshot still present after migration (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest missing after migration: %v", err)
	}
}

// TestFullRebaseEveryCheckpoint runs the same history through a repository
// that rebases on every checkpoint (CheckpointMaxChain 1: each checkpoint is
// a full snapshot, so the chain length is always 1) and one that stacks
// incremental deltas. Recovery must be byte-identical.
func TestFullRebaseEveryCheckpoint(t *testing.T) {
	dirF, dirI := t.TempDir(), t.TempDir()
	full := openRepoOpts(t, dirF, Options{SegmentBytes: 4 << 10, CheckpointMaxChain: 1})
	in := openRepoOpts(t, dirI, Options{SegmentBytes: 4 << 10, CheckpointMaxChain: 2})
	for round := 0; round < 4; round++ {
		tag := fmt.Sprintf("r%d-", round)
		churn(t, full, tag, 4, 20)
		churn(t, in, tag, 4, 20)
		if err := full.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := in.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n, _ := full.SnapshotChain(); n != 1 {
			t.Fatalf("full-rebase chain length = %d, want always 1", n)
		}
	}
	full.Close()
	in.Close()
	full2 := openRepoOpts(t, dirF, Options{})
	in2 := openRepoOpts(t, dirI, Options{})
	if df, di := digest(t, full2), digest(t, in2); df != di {
		t.Fatalf("full-rebase and incremental recovery digests differ:\n--- full\n%s--- incremental\n%s", df, di)
	}
}
