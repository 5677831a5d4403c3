package core

import (
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// stagedKey mirrors the server-TM's persistent key for a prepared checkin.
const stagedKey = "tm/staged/tx-indoubt"

// TestCheckpointPreservesInDoubt2PC stages and prepares a checkin, takes a
// checkpoint while the transaction is in doubt, crashes the server, and
// verifies that (a) the staged record and the prepared vote survive via the
// snapshot and compacted participant log, and (b) the restarted participant
// resolves the transaction (presumed abort here: no coordinator logged a
// commit), after which normal work continues.
func TestCheckpointPreservesInDoubt2PC(t *testing.T) {
	dir := t.TempDir()
	sys := newSystem(t, dir)
	startDA(t, sys, "da1", areaSpec(100))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	v0 := planOnce(t, ws, "da1", 90, "")

	// Stage + prepare a checkin server-side without delivering the
	// decision: the transaction is now in doubt at the participant.
	sys.mu.Lock()
	site := sys.server
	sys.mu.Unlock()
	if err := site.TM.Begin("dop-indoubt", "da1"); err != nil {
		t.Fatal(err)
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str("O")).
		Set("area", catalog.Float(70))
	dov := &version.DOV{ID: "dov-indoubt", DOT: vlsi.DOTFloorplan, DA: "da1", Object: obj, Status: version.StatusWorking}
	if err := site.TM.Stage("dop-indoubt", "tx-indoubt", dov, true, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := site.Participant.Handler()(rpc.MethodPrepare, []byte("tx-indoubt"))
	if err != nil || string(resp) != "commit" {
		t.Fatalf("prepare = %q, %v", resp, err)
	}

	// Checkpoint with the transaction in doubt: the staged record rides in
	// the repository snapshot, the vote in the participant-log snapshot.
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Repo().LogSize() - int64(sys.Repo().LowWater()); got != 0 {
		t.Fatalf("repo log suffix after checkpoint = %d bytes", got)
	}
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}

	// Inspect the durable state between crash and restart: the staged
	// record must have survived the checkpoint.
	insp, err := repo.Open(sys.Catalog(), repo.Options{Dir: sys.serverDir(), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insp.GetMeta(stagedKey); err != nil {
		t.Fatalf("staged 2PC record lost across checkpoint+crash: %v", err)
	}
	if ok, err := insp.Exists("dov-indoubt"); err != nil || ok {
		t.Fatalf("undecided DOV installed before the decision (ok=%t err=%v)", ok, err)
	}
	insp.Close()

	// Restart: the participant recovers its vote from the compacted log
	// and resolves the in-doubt transaction against the coordinators — no
	// coordinator logged a commit, so presumed abort applies and the
	// staged record is dropped.
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if ok, err := sys.Repo().Exists("dov-indoubt"); err != nil || ok {
		t.Fatalf("aborted checkin installed after restart (ok=%t err=%v)", ok, err)
	}
	if _, err := sys.Repo().GetMeta(stagedKey); err == nil {
		t.Fatal("staged record not cleaned up by in-doubt resolution")
	}
	sys.mu.Lock()
	site = sys.server
	sys.mu.Unlock()
	if n := len(site.Participant.InDoubt()); n != 0 {
		t.Fatalf("%d transactions still in doubt after restart", n)
	}
	// The committed history survived and work continues.
	if ok, err := sys.Repo().Exists(v0); err != nil || !ok {
		t.Fatalf("committed version lost (ok=%t err=%v)", ok, err)
	}
	planOnce(t, ws, "da1", 60, v0)
}

// TestBackgroundCheckpointer drives enough log traffic past a small
// threshold and waits for the background checkpointer to compact the log,
// then verifies a crash+restart recovers everything from the snapshot.
func TestBackgroundCheckpointer(t *testing.T) {
	sys, err := NewSystem(Options{
		Dir:                t.TempDir(),
		RegisterTypes:      vlsi.RegisterCatalog,
		CheckpointLogBytes: 8 << 10,
		SegmentBytes:       4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	startDA(t, sys, "da1", areaSpec(1000))
	ws, err := sys.AddWorkstation("ws1")
	if err != nil {
		t.Fatal(err)
	}
	var last version.ID
	deadline := time.Now().Add(10 * time.Second)
	for sys.Repo().Checkpoints() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never fired (log size %d)", sys.Repo().LogSize())
		}
		last = planOnce(t, ws, "da1", 500, last)
	}
	if sys.Repo().LowWater() == 0 {
		t.Fatal("checkpoint completed but low-water mark not advanced")
	}
	want := sys.Repo().DOVCount()
	if err := sys.CrashServer(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RestartServer(); err != nil {
		t.Fatal(err)
	}
	if got := sys.Repo().DOVCount(); got != want {
		t.Fatalf("recovered %d DOVs after background checkpoint, want %d", got, want)
	}
	if err := sys.Repo().CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	planOnce(t, ws, "da1", 400, last)
}
