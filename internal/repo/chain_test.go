package repo

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
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

// openFast opens a repository without a forced log write per operation, for
// tests that build large states; a Close makes the log durable.
func openFast(t *testing.T, dir string) *Repository {
	t.Helper()
	r, err := Open(testCatalog(t), Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// checkinRoots checks in n root versions named prefix0..prefix<n-1>.
func checkinRoots(t *testing.T, r *Repository, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.Checkin(mkDOV(fmt.Sprintf("%s%d", prefix, i), "da", float64(i)), true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalCheckpointSkipsCleanShards asserts the delta actually is a
// delta of records, not of shards: version IDs hash across all 64 shards,
// so eleven changes dirty eleven shards, yet the delta after a 2000-version
// base carries only the ten new versions and the one whose status flipped.
func TestIncrementalCheckpointSkipsCleanShards(t *testing.T) {
	const base = 2000
	r := openFast(t, t.TempDir())
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	checkinRoots(t, r, "v", base)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, baseBytes := r.SnapshotChain()
	checkinRoots(t, r, "new", 10)
	if err := r.SetStatus("v7", version.StatusFinal); err != nil {
		t.Fatal(err)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n, chainBytes := r.SnapshotChain()
	inc, recBytes := chainBytes-baseBytes, baseBytes/base+1
	if n != 2 || inc > 12*recBytes+4<<10 {
		t.Fatalf("delta of 11 changed versions = %d bytes (chain of %d) against %d-byte records: not per-record", inc, n, recBytes)
	}
}

// TestRebaseStreamsState pins the streamed base: a full checkpoint of a
// 64 MiB repository allocates a few buffers, not a copy of the state.
func TestRebaseStreamsState(t *testing.T) {
	const n, size = 1024, 64 << 10
	r := openFast(t, t.TempDir())
	if err := r.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	cell := strings.Repeat("x", size)
	for i := 0; i < n; i++ {
		obj := catalog.NewObject("floorplan").Set("cell", catalog.Str(cell)).Set("area", catalog.Float(float64(i)))
		if err := r.Checkin(&version.DOV{ID: version.ID(fmt.Sprintf("v%04d", i)), DOT: "floorplan", DA: "da", Object: obj}, true); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	elems, baseBytes := r.SnapshotChain()
	t.Logf("rebase of %d MiB allocated %.2f MiB", baseBytes>>20, float64(alloc)/(1<<20))
	if elems != 1 || baseBytes < n*size {
		t.Fatalf("chain = %d elements, %d bytes; want one base holding %d bytes of payload", elems, baseBytes, n*size)
	}
	if alloc >= 8<<20 {
		t.Fatalf("rebase of a %d-byte state allocated %d bytes", baseBytes, alloc)
	}
}

// TestWholeShardDeltaFoldsLikePerRecord keeps deltas written with whole
// dirty shards loadable: the same cut written that way by an older build —
// every record of each dirty shard, one record group per shard, a superset
// of the per-record delta — must fold to the same state.
func TestWholeShardDeltaFoldsLikePerRecord(t *testing.T) {
	dir := t.TempDir()
	r := openFast(t, dir)
	churn(t, r, "a-", 200, 0)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, r, "b-", 20, 30)
	// The cut the next checkpoint will take, widened to whole shards.
	wide := nextCut(t, r, false)
	wide.since = [idxShards]uint64{}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := digest(t, r)
	// Render the widened delta while r is open: its cold records read their
	// payloads from r's chain files.
	wideBytes := renderPayload(t, func(pw *payloadWriter) { writeLegacyDelta(wide, pw) })
	r.Close()
	r2 := openFast(t, dir)
	if got := digest(t, r2); got != want {
		t.Fatalf("per-record delta recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
	r2.Close()

	inc := filepath.Join(dir, snapFileName(wide.snapLSN, false))
	perRecord, err := os.Stat(inc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inc, wideBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	whole, err := os.Stat(inc)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Size() <= perRecord.Size() {
		t.Fatalf("whole-shard delta %d bytes, per-record %d: not a superset", whole.Size(), perRecord.Size())
	}
	if got := digest(t, openFast(t, dir)); got != want {
		t.Fatalf("whole-shard delta recovery differs:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestFirstCheckpointAfterOpenIsIncremental: records loaded from the chain
// are clean, everything the log suffix replays is dirty — new versions, a
// status change of a chain-loaded version, the metadata store — so the
// first checkpoint after a restart is a delta holding exactly the suffix.
// A repository without a chain still starts with a base.
func TestFirstCheckpointAfterOpenIsIncremental(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{})
	churn(t, r, "a-", 40, 0)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.SnapshotChain(); n != 1 {
		t.Fatalf("first checkpoint of a fresh repository: chain of %d, want a base", n)
	}
	checkinRoots(t, r, "suffix-", 5)
	if err := r.SetStatus("a-v003", version.StatusFinal); err != nil {
		t.Fatal(err)
	}
	if err := r.PutMeta("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	want := digest(t, r)
	r.Close()

	r2 := openRepoOpts(t, dir, Options{})
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r2.SnapshotChain(); n != 2 {
		t.Fatalf("first checkpoint after reopen: chain of %d, want base + delta", n)
	}
	p, _, err := openSnapFile(filepath.Join(dir, snapFileName(r2.SnapshotLSN(), false)))
	if err != nil {
		t.Fatal(err)
	}
	p.f.Close()
	var got []string
	for _, dr := range p.recs {
		got = append(got, string(dr.ID))
	}
	sort.Strings(got)
	wantIDs := []string{"a-v003", "suffix-0", "suffix-1", "suffix-2", "suffix-3", "suffix-4"}
	if !slices.Equal(got, wantIDs) || string(p.meta["k"]) != "v" {
		t.Fatalf("delta after reopen holds %v (meta %q), want %v and the metadata store", got, p.meta, wantIDs)
	}
	r2.Close()
	if got := digest(t, openRepoOpts(t, dir, Options{})); got != want {
		t.Fatalf("recovery through the post-restart delta differs:\n--- want\n%s--- got\n%s", want, got)
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
	// A delta appended behind the garbage would never be parsed, so the
	// next checkpoint rebases instead, and what it covers survives.
	churn(t, r2, "c-", 2, 20)
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := r2.SnapshotChain(); n != 1 {
		t.Fatalf("checkpoint over a torn manifest: chain of %d, want a rebase", n)
	}
	want = digest(t, r2)
	r2.Close()
	if got := digest(t, openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})); got != want {
		t.Fatalf("checkpoint over a torn manifest lost state:\n--- want\n%s--- got\n%s", want, got)
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

// TestPreChainSnapshotRefused: a directory in the layout before the
// snapshot chain — one CCSNAP01 file named "snapshot", no manifest — is
// refused with errPreChainSnapshot, and every file in it is left as it was.
// Replaying the log from LSN 0 instead would drop the checkpointed prefix.
func TestPreChainSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	r := openRepoOpts(t, dir, Options{SegmentBytes: 4 << 10})
	churn(t, r, "a-", 6, 60)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := snapFiles(t, dir)
	if len(files) != 1 || !strings.HasSuffix(files[0], ".base") {
		t.Fatalf("payload files = %v, want one base", files)
	}
	r.Close()
	// Devolve the directory to the pre-chain layout.
	if err := os.Rename(filepath.Join(dir, files[0]), filepath.Join(dir, "snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)

	r2, err := Open(testCatalog(t), Options{Dir: dir, Sync: true, SegmentBytes: 4 << 10})
	if !errors.Is(err, errPreChainSnapshot) {
		if r2 != nil {
			r2.Close()
		}
		t.Fatalf("Open of a pre-chain directory = %v, want errPreChainSnapshot", err)
	}
	after := dirImage(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	for name, data := range before {
		if after[name] != data {
			t.Fatalf("refused Open changed %s", name)
		}
	}
}

// dirImage maps every regular file under dir (by relative path) to its
// contents.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		img[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
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
