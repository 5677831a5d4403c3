package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/lock"
	"concord/internal/rpc"
	"concord/internal/version"
	"concord/internal/wal"
)

// openWS opens one incarnation of workstation "ws1" over wsDir. Each
// incarnation needs its own rpc client ID so request IDs never collide in
// the server's dedup cache.
func openWS(t *testing.T, s *stack, wsDir, clientID string) (*ClientTM, []*DOP) {
	t.Helper()
	client := rpc.NewClient(s.trans, clientID)
	client.Backoff = 0
	tm, recovered, err := NewClientTM("ws1", client, serverAddr, wsDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tm.Close() })
	return tm, recovered
}

// copyTree copies a workstation directory as it is on disk right now — what a
// crash at this instant would leave: records reserved in a log but not yet
// written by a batch leader are not in it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// damageCacheRecord rewrites the cache log under wsDir as a lost or a bad
// write would have left it for id: drop deletes every record of id, as if it
// had never been cached; otherwise id's last entry record keeps a valid frame
// around a payload that no longer matches its hash.
func damageCacheRecord(t *testing.T, wsDir string, id version.ID, drop bool) {
	t.Helper()
	path := filepath.Join(wsDir, "cache", cacheLogName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type record struct {
		frame []byte
		e     *cacheEntry
		tomb  version.ID
	}
	var recs []record
	last := -1
	for off := 0; off < len(data); {
		n := cacheRecHeader + int(binary.LittleEndian.Uint32(data[off:]))
		e, tomb, ok := decodeCacheRecord(data[off+cacheRecHeader : off+n])
		if !ok {
			t.Fatalf("cache log record at %d does not decode", off)
		}
		if e != nil && e.Meta.ID == id {
			last = len(recs)
		}
		recs = append(recs, record{frame: data[off : off+n], e: e, tomb: tomb})
		off += n
	}
	if last < 0 {
		t.Fatalf("the cache log holds no record of %s", id)
	}
	w := binenc.NewWriter(len(data))
	for i, r := range recs {
		switch {
		case drop && (r.tomb == id || r.e != nil && r.e.Meta.ID == id):
		case !drop && i == last:
			r.e.Enc[len(r.e.Enc)/2] ^= 0xFF
			appendEntryRecord(w, r.e)
		default:
			w.Raw(r.frame)
		}
	}
	if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lastSegment names the newest segment file of the log directory.
func lastSegment(t *testing.T, logDir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(logDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments under %s (%v)", logDir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func inputIDs(d *DOP) string { return fmt.Sprint(d.Inputs()) }

// TestCheckoutLeavesContextUnchangedOnLogError: a checkout whose input record
// the log refuses returns an error and must not have entered the version into
// the DOP context (it used to, so Inputs() and the next checkin's parents
// named a version the caller was told it does not hold).
func TestCheckoutLeavesContextUnchangedOnLogError(t *testing.T) {
	s := newStack(t, t.TempDir())
	v0 := s.seedDOV(t, "v0", 100)
	v1 := s.seedDOV(t, "v1", 200)
	dop, err := s.tm.Begin("dop-log-err", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	if err := s.tm.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v1, true); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("Checkout on a closed log = %v, want wal.ErrClosed", err)
	}
	if got := inputIDs(dop); got != "[v0]" {
		t.Fatalf("inputs after the failed checkout = %s, want [v0]", got)
	}
	if _, err := dop.Input(v1); !errors.Is(err, version.ErrUnknownDOV) {
		t.Fatalf("Input of the refused version = %v, want ErrUnknownDOV", err)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestClientTMOwnsItsLog: a durable workstation keeps one log, client-tm.wal,
// which the coordinator shares, and its cache keeps one entry log; Close,
// Crash and every error path of NewClientTM release both. A directory that
// still holds the separate client-coord.wal of older builds is refused, not
// read beside it.
func TestClientTMOwnsItsLog(t *testing.T) {
	s := newStack(t, "")
	open := func(dir, id string) (*ClientTM, error) {
		client := rpc.NewClient(s.trans, id)
		client.Backoff = 0
		tm, _, err := NewClientTM("ws1", client, serverAddr, dir)
		return tm, err
	}
	good := filepath.Join(t.TempDir(), "ws1")
	// A workstation whose client log NewClientTM refuses after the log is
	// open and half replayed: the error path that opened the most.
	foreign := filepath.Join(t.TempDir(), "ws1")
	l, err := wal.Open(filepath.Join(foreign, "client-tm.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0x21, "coordinator", []byte("ws1/dop-0001/ci1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0x41, "dop", []byte("gob")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	twoLogs := filepath.Join(t.TempDir(), "ws1")
	if err := os.MkdirAll(filepath.Join(twoLogs, "client-coord.wal"), 0o755); err != nil {
		t.Fatal(err)
	}

	round := func(i int) {
		tm, err := open(good, fmt.Sprintf("fd-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		enc := []byte(fmt.Sprintf("payload %d", i))
		tm.Cache().Put(dovMeta{ID: version.ID(fmt.Sprintf("v%d", i)), DA: "da1"}, catalog.HashEncoded(enc), enc)
		if i%2 == 0 {
			err = tm.Close()
		} else {
			tm.Crash()
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := open(foreign, fmt.Sprintf("fd-foreign-%d", i)); !errors.Is(err, errForeignClientLog) {
			t.Fatalf("foreign log: %v, want errForeignClientLog", err)
		}
		if _, err := open(twoLogs, fmt.Sprintf("fd-two-%d", i)); !errors.Is(err, errSeparateCoordLog) {
			t.Fatalf("directory with client-coord.wal: %v, want errSeparateCoordLog", err)
		}
	}
	round(0) // whatever is opened once and kept is open before the count
	before := openFDs(t)
	for i := 1; i <= 50; i++ {
		round(i)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("open descriptors %d → %d over 50 open/close rounds", before, after)
	}
	ents, err := os.ReadDir(good)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if got := fmt.Sprint(names); got != "[cache client-tm.wal]" {
		t.Fatalf("workstation directory holds %s, want [cache client-tm.wal]", got)
	}
	tm, err := open(good, "fd-last")
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	if n := tm.Cache().Len(); n != 51 {
		t.Fatalf("cache reopened with %d of the 51 entries put", n)
	}
}

// bigCell makes the floorplan's cell attribute carry n bytes of payload that
// differ per tag, so a cycle logs a workspace of realistic size.
func bigCell(n int, tag string) catalog.Value {
	return catalog.Str(strings.Repeat(tag+"-0123456789abcdef", n/(len(tag)+17)+1)[:n])
}

// TestClientLogStaysBounded: neither client-tm.wal nor its replay used to be
// bounded. Now every DOP end may cut the log at the oldest context record a
// live DOP still needs.
func TestClientLogStaysBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 durable checkin cycles")
	}
	s := newStack(t, "") // volatile server: the cycles cost client forces only
	wsDir := filepath.Join(t.TempDir(), "ws1")
	tm, _ := openWS(t, s, wsDir, "bounded-1")
	tip := s.seedDOV(t, "v0", 1)
	var acked []string // the checkins' 2PC transactions
	cycle := func(i int) {
		t.Helper()
		d, err := tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, d.ID()+"/ci1")
		obj, err := d.Checkout(tip, true)
		if err != nil {
			t.Fatal(err)
		}
		obj.Set("cell", bigCell(16<<10, fmt.Sprint(i)))
		d.SetWorkspace(obj) //nolint:errcheck // the DOP is active
		if tip, err = d.Checkin(version.StatusWorking, false); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const seg = wal.DefaultSegmentBytes

	// A parked DOP whose only context record is at the head of the log pins
	// the floor: the log grows past three segments and is not cut.
	parked, err := tm.Begin("parked", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if err := parked.Suspend(); err != nil {
		t.Fatal(err)
	}
	pin := tm.ctxLSN["parked"]
	i := 0
	for ; tm.log.DiskBytes() <= 3*seg; i++ {
		if i == 2000 {
			t.Fatalf("log still at %d bytes after %d cycles", tm.log.DiskBytes(), i)
		}
		cycle(i)
	}
	if lw := tm.log.LowWater(); lw > pin {
		t.Fatalf("low-water mark %d passed the parked DOP's context record at %d", lw, pin)
	}
	// Unparked and ended, it pins nothing: the very next DOP end cuts the log,
	// and from then on it stays under three segments.
	if err := parked.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := parked.Abort(); err != nil {
		t.Fatal(err)
	}
	for ; i < 2000; i++ {
		cycle(i)
		if n := tm.log.DiskBytes(); n >= 3*seg {
			t.Fatalf("cycle %d: client log holds %d bytes, want < %d", i, n, 3*seg)
		}
	}
	if tm.log.Checkpoints() == 0 {
		t.Fatal("the log was never checkpointed")
	}

	// Restart recovers exactly the DOPs that are live: one parked, one active
	// with an input, none of the 2000 that ended.
	susp, err := tm.Begin("live-suspended", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if err := susp.Suspend(); err != nil {
		t.Fatal(err)
	}
	act, err := tm.Begin("live-active", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := act.Checkout(tip, false); err != nil {
		t.Fatal(err)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	tm2, recovered := openWS(t, s, wsDir, "bounded-2")
	var got []string
	for _, d := range recovered {
		got = append(got, fmt.Sprintf("%s/%s%s", d.ID(), d.Phase(), inputIDs(d)))
	}
	want := fmt.Sprintf("[live-active/active[%s] live-suspended/suspended[]]", tip)
	if fmt.Sprint(got) != want {
		t.Fatalf("recovered %v, want %s", got, want)
	}
	// Every checkin's decision was acknowledged, so the coordinator holds none
	// of them, before the restart or after it.
	for _, co := range []*rpc.Coordinator{tm.coord, tm2.coord} {
		pending := 0
		for _, txid := range acked {
			if co.Outcome(txid) == rpc.OutcomeCommitted {
				pending++
			}
		}
		if pending != 0 {
			t.Fatalf("coordinator still holds %d of %d acknowledged decisions", pending, len(acked))
		}
	}
}

// TestRecoveryLogCrashMatrix drives one DOP to a crash and restarts the
// workstation from what the crash left: the client log by reference must
// restore the DOP at its last durable point whatever happened to the unforced
// tail of the log or to the cache the references point into.
//
// Every case runs the same prefix — Begin, derive-checkout of v0, workspace,
// Save (the forced point), derive-checkout of v1 (unforced) — and differs in
// how the workstation dies and what its disk loses. The last two rows lose
// the records that ride the next force instead of being forced: a checkin's
// decision end record, and the DOP's end record.
func TestRecoveryLogCrashMatrix(t *testing.T) {
	type run struct {
		s     *stack
		wsDir string // the disk the next incarnation boots from
		dop   *DOP   // the first incarnation's DOP, dop-m
	}
	// die ends the first incarnation; flush lets its unforced tail reach disk
	// (Crash closes the logs, which writes what was reserved), no flush boots
	// the successor from a copy of the disk taken while the tail was pending.
	die := func(t *testing.T, r *run, flush bool) {
		if !flush {
			image := filepath.Join(t.TempDir(), "ws1")
			copyTree(t, r.wsDir, image)
			r.wsDir = image
		}
		r.s.tm.Crash()
	}
	// endThenDie checks the DOP in and ends it, then dies while the end
	// record still waits for the next force.
	endThenDie := func(t *testing.T, r *run) {
		if _, err := r.dop.Checkin(version.StatusWorking, false); err != nil {
			t.Fatal(err)
		}
		if err := r.dop.Commit(); err != nil {
			t.Fatal(err)
		}
		die(t, r, false)
	}
	cases := []struct {
		name string
		// crash kills the workstation and damages its disk.
		crash func(t *testing.T, r *run)
		// inputs the restored DOP must hold, and which of them Reattach has
		// to refetch from the server because the cache lost them.
		inputs    string
		refetched uint64
		// after, when set, replaces the checkin every other row ends with:
		// the DOP had already checked in before the crash.
		after func(t *testing.T, r *run, tm2 *ClientTM, rdop *DOP)
		// refused rows expect Reattach to fail; after then runs at once.
		refused bool
	}{
		{
			name:   "unforced input-added lost",
			crash:  func(t *testing.T, r *run) { die(t, r, false) },
			inputs: "[v0]",
		},
		{
			name:   "unforced input-added reached disk",
			crash:  func(t *testing.T, r *run) { die(t, r, true) },
			inputs: "[v0 v1]",
		},
		{
			name: "torn tail",
			crash: func(t *testing.T, r *run) {
				die(t, r, true)
				seg := lastSegment(t, filepath.Join(r.wsDir, "client-tm.wal"))
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				// The last record is v1's input-added: tear it.
				if err := os.Truncate(seg, fi.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			inputs: "[v0]",
		},
		{
			name: "cache entry evicted",
			crash: func(t *testing.T, r *run) {
				die(t, r, true)
				damageCacheRecord(t, r.wsDir, "v0", true)
			},
			inputs: "[v0 v1]", refetched: 1,
		},
		{
			name: "cache entry corrupted",
			crash: func(t *testing.T, r *run) {
				die(t, r, true)
				damageCacheRecord(t, r.wsDir, "v1", false)
			},
			inputs: "[v0 v1]", refetched: 1,
		},
		{
			name: "cache entry holds other bytes under the same ID",
			crash: func(t *testing.T, r *run) {
				other, err := catalog.EncodeObject(catalog.NewObject("floorplan").Set("cell", catalog.Str("other")))
				if err != nil {
					t.Fatal(err)
				}
				r.s.tm.cache.Put(dovMeta{ID: "v0", DOT: "floorplan", DA: "da1"}, catalog.HashEncoded(other), other)
				die(t, r, true)
			},
			inputs: "[v0 v1]", refetched: 1,
		},
		{
			name: "cache epoch bumped",
			crash: func(t *testing.T, r *run) {
				r.s.tm.cache.BumpEpoch() // flushes every entry
				die(t, r, true)
			},
			inputs: "[v0 v1]", refetched: 2,
		},
		{
			// The disk is copied the moment the server has applied phase 2:
			// the decision (and v1's input-added, which rode its force) is
			// durable; the decision's end record and the post-checkin
			// context are not. The DOP comes back at its Save point.
			name: "decision end record lost",
			crash: func(t *testing.T, r *run) {
				image := filepath.Join(t.TempDir(), "ws1")
				h := rpc.DedupDeadlineFenced(r.s.server.DeadlineHandler(r.s.part), nil)
				snap := func(deadline time.Time, method string, payload []byte) ([]byte, error) {
					resp, err := h(deadline, method, payload)
					if method == rpc.MethodCommit {
						copyTree(t, r.wsDir, image)
					}
					return resp, err
				}
				if err := rpc.ServeWithDeadline(r.s.trans, serverAddr, snap); err != nil {
					t.Fatal(err)
				}
				if _, err := r.dop.Checkin(version.StatusWorking, false); err != nil {
					t.Fatal(err)
				}
				r.wsDir = image
				r.s.tm.Crash()
			},
			inputs: "[v0 v1]",
			after: func(t *testing.T, r *run, tm2 *ClientTM, rdop *DOP) {
				// The decision is pending again, and committed is the truth.
				co := tm2.Coordinator()
				if got := co.Outcome("dop-m/ci1"); got != rpc.OutcomeCommitted {
					t.Fatalf("outcome of the checkin whose end record was lost = %s", got)
				}
				// Re-sending it, as a failover does, is an idempotent commit
				// at the server, which installed the version once already.
				if err := co.ResendDecisions(serverAddr); err != nil {
					t.Fatal(err)
				}
				if got := co.Outcome("dop-m/ci1"); got != rpc.OutcomeAborted {
					t.Fatalf("acknowledged resend left the decision %s", got)
				}
				v, err := r.s.repo.Get("dop-m/v1")
				if err != nil || fmt.Sprint(v.Parents) != "[v0 v1]" {
					t.Fatalf("the committed checkin: %v, %v", v, err)
				}
				// The DOP is live at the server, derivation locks included.
				for _, id := range []version.ID{"v0", "v1"} {
					if m := r.s.locks.Holds("dop-m", "dov/"+string(id)); m != lock.D {
						t.Fatalf("derivation lock on %s = %v, want D", id, m)
					}
				}
			},
		},
		{
			// The DOP checked in and ended; its end record was still waiting
			// for the next force when the workstation died. The DOP comes back
			// at its post-checkin context; the server ended it first, so
			// Reattach registers it afresh and takes its derivation locks
			// again. Ending it again is one tm/abort-dop that changes nothing.
			name: "DOP end record lost",
			crash: func(t *testing.T, r *run) {
				endThenDie(t, r)
			},
			inputs: "[v0 v1]",
			after: func(t *testing.T, r *run, tm2 *ClientTM, rdop *DOP) {
				for _, id := range []version.ID{"v0", "v1"} {
					if m := r.s.locks.Holds("dop-m", "dov/"+string(id)); m != lock.D {
						t.Fatalf("derivation lock of the resurrected DOP on %s = %v, want D", id, m)
					}
				}
				versions := r.s.repo.DOVCount()
				if err := rdop.Abort(); err != nil {
					t.Fatal(err)
				}
				if n := r.s.server.ActiveDOPs(); n != 0 {
					t.Fatalf("%d DOPs registered at the server after the second end", n)
				}
				if n := r.s.repo.DOVCount(); n != versions {
					t.Fatalf("the second end changed the repository: %d → %d versions", versions, n)
				}
				if _, err := r.s.repo.Get("dop-m/v1"); err != nil {
					t.Fatalf("the ended DOP's checkin: %v", err)
				}
			},
		},
		{
			// As above, and before the workstation is back another DOP takes
			// the derivation lock on v1. The resurrected DOP must not derive
			// from v1 beside it: Reattach cannot take the lock, ends the DOP
			// at the server, and a Checkin then has nothing to stage under.
			name: "DOP end record lost, another DOP derives from v1",
			crash: func(t *testing.T, r *run) {
				endThenDie(t, r)
				r.s.server.LockTimeout = 50 * time.Millisecond
				if err := r.s.server.Begin("dop-rival", "da1"); err != nil {
					t.Fatal(err)
				}
				if _, err := r.s.server.Checkout("dop-rival", "v1", true); err != nil {
					t.Fatal(err)
				}
			},
			inputs: "[v0 v1]", refused: true,
			after: func(t *testing.T, r *run, tm2 *ClientTM, rdop *DOP) {
				for _, id := range []version.ID{"v0", "v1"} {
					if m := r.s.locks.Holds("dop-m", "dov/"+string(id)); m != 0 {
						t.Fatalf("the refused DOP holds %v on %s", m, id)
					}
				}
				if m := r.s.locks.Holds("dop-rival", "dov/v1"); m != lock.D {
					t.Fatalf("the rival's derivation lock on v1 = %v, want D", m)
				}
				versions := r.s.repo.DOVCount()
				if _, err := rdop.Checkin(version.StatusWorking, false); !errors.Is(err, ErrUnknownDOP) {
					t.Fatalf("Checkin of the refused DOP = %v, want %v", err, ErrUnknownDOP)
				}
				if n := r.s.repo.DOVCount(); n != versions {
					t.Fatalf("the refused DOP checked in: %d → %d versions", versions, n)
				}
				if err := rdop.Abort(); err != nil {
					t.Fatal(err)
				}
				if n := r.s.server.ActiveDOPs(); n != 1 {
					t.Fatalf("%d DOPs registered at the server, want the rival only", n)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := &run{s: newStack(t, dir), wsDir: filepath.Join(dir, "ws1")}
			s := r.s
			v0 := s.seedDOV(t, "v0", 100)
			v1 := s.seedDOV(t, "v1", 200)
			dop, err := s.tm.Begin("dop-m", "da1")
			if err != nil {
				t.Fatal(err)
			}
			obj, err := dop.Checkout(v0, true)
			if err != nil {
				t.Fatal(err)
			}
			obj.Set("area", catalog.Float(55))
			dop.SetWorkspace(obj) //nolint:errcheck // the DOP is active
			if err := dop.Save("progress"); err != nil {
				t.Fatal(err)
			}
			if _, err := dop.Checkout(v1, true); err != nil {
				t.Fatal(err)
			}
			r.dop = dop
			tc.crash(t, r)

			tm2, recovered := openWS(t, s, r.wsDir, "ws1-incarnation-2")
			if len(recovered) != 1 || recovered[0].ID() != "dop-m" {
				t.Fatalf("recovered %v, want dop-m", recovered)
			}
			rdop := recovered[0]
			if got := inputIDs(rdop); got != tc.inputs {
				t.Fatalf("inputs restored = %s, want %s", got, tc.inputs)
			}
			// The tool work is embedded, whatever the cache lost.
			if got := catalog.NumAttr(rdop.Workspace(), "area"); got != 55 {
				t.Fatalf("workspace area = %g, want 55", got)
			}
			if got := fmt.Sprint(rdop.Savepoints()); got != "[progress]" {
				t.Fatalf("savepoints = %s", got)
			}
			err = tm2.Reattach(rdop)
			if (err != nil) != tc.refused {
				t.Fatalf("Reattach: %v", err)
			}
			if tc.refused {
				tc.after(t, r, tm2, rdop)
				return
			}
			// Every input is a derive input, so Reattach takes each lock again:
			// the inputs the cache lost as one cache-blind full transfer each,
			// the others as NotModified handshakes.
			n := uint64(len(rdop.Inputs()))
			if w := tm2.WireStats(); w.Checkouts != n || w.FullCheckouts != tc.refetched || w.NotModified != n-tc.refetched {
				t.Fatalf("Reattach made %d checkouts (%d full, %d NotModified), want %d (%d full)", w.Checkouts, w.FullCheckouts, w.NotModified, n, tc.refetched)
			}
			for _, id := range rdop.Inputs() {
				in, err := rdop.Input(id)
				if err != nil {
					t.Fatalf("Input(%s) after Reattach: %v", id, err)
				}
				want, err := s.repo.Object(id)
				if err != nil {
					t.Fatal(err)
				}
				if h1, h2 := mustHash(t, in), mustHash(t, want); !bytes.Equal(h1, h2) {
					t.Fatalf("input %s restored with hash %x, the repository holds %x", id, h1, h2)
				}
			}
			if tc.after != nil {
				tc.after(t, r, tm2, rdop)
				return
			}
			// The derivation locks never left the server, and a checkout the
			// crash rolled back is repeated under the same lock, re-entrantly.
			for _, id := range []version.ID{v0, v1} {
				if m := s.locks.Holds("dop-m", "dov/"+string(id)); m != lock.D {
					t.Fatalf("derivation lock on %s = %v, want D", id, m)
				}
			}
			if tc.inputs == "[v0]" {
				before := tm2.WireStats().NotModified
				if _, err := rdop.Checkout(v1, true); err != nil {
					t.Fatalf("re-checkout of the rolled-back input: %v", err)
				}
				if w := tm2.WireStats(); w.NotModified != before+1 {
					t.Fatalf("re-checkout cost %+v, want one NotModified handshake", w)
				}
			}
			newID, err := rdop.Checkin(version.StatusWorking, false)
			if err != nil {
				t.Fatalf("checkin after recovery: %v", err)
			}
			if err := rdop.Commit(); err != nil {
				t.Fatal(err)
			}
			v, err := s.repo.Get(newID)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(v.Parents); got != "[v0 v1]" {
				t.Fatalf("parents of the recovered DOP's result = %s", got)
			}
		})
	}
}

// TestPendingDecisionSurvivesLogCut is the crash-matrix row of a coordinator
// that dies between its durable commit decision and phase 2
// (rpc.FaultDecisionLogged). The decision shares client-tm.wal with the DOP
// records, and the cycles after it cut the log past the decision record; the
// cut re-logs the still unacknowledged decision above its floor, so after a
// restart the coordinator still answers committed and the server
// participant's Resolve installs the branch.
func TestPendingDecisionSurvivesLogCut(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("dop-p", "da1")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dop.Checkout(v0, false)
	if err != nil {
		t.Fatal(err)
	}
	obj.Set("area", catalog.Float(42))
	dop.SetWorkspace(obj) //nolint:errcheck // the DOP is active
	co := s.tm.Coordinator()
	co.Faults = fault.New()
	co.Faults.Arm(rpc.FaultDecisionLogged, errors.New("coordinator died after the decision"))
	mark := wal.LSN(s.tm.log.Size()) // the decision record lies above it
	if _, err := dop.Checkin(version.StatusWorking, false); err == nil {
		t.Fatal("checkin should surface the phase-2 failure")
	}
	co.Faults.Disarm(rpc.FaultDecisionLogged)
	if err := dop.Abort(); err != nil { // its context record no longer pins the floor
		t.Fatal(err)
	}

	tip := v0
	for i := 0; s.tm.log.LowWater() <= mark; i++ {
		if i == 100 {
			t.Fatalf("no cut passed the decision at LSN %d in %d cycles (low-water %d)", mark, i, s.tm.log.LowWater())
		}
		d, err := s.tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		o, err := d.Checkout(tip, true)
		if err != nil {
			t.Fatal(err)
		}
		o.Set("cell", bigCell(256<<10, fmt.Sprint(i)))
		d.SetWorkspace(o) //nolint:errcheck // the DOP is active
		if tip, err = d.Checkin(version.StatusWorking, false); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.tm.Crash()

	tm2, _ := openWS(t, s, filepath.Join(dir, "ws1"), "ws1-incarnation-2")
	if got := tm2.Coordinator().Outcome("dop-p/ci1"); got != rpc.OutcomeCommitted {
		t.Fatalf("outcome of the unacknowledged decision after the cut and a restart = %s", got)
	}
	if doubt := s.part.InDoubt(); fmt.Sprint(doubt) != "[dop-p/ci1]" {
		t.Fatalf("participant in doubt about %v, want [dop-p/ci1]", doubt)
	}
	if err := s.part.Resolve(tm2.Coordinator().Outcome); err != nil {
		t.Fatal(err)
	}
	got, err := s.repo.Object("dop-p/v1")
	if err != nil {
		t.Fatalf("the committed branch was not installed: %v", err)
	}
	if catalog.NumAttr(got, "area") != 42 {
		t.Fatalf("area = %g, want 42", catalog.NumAttr(got, "area"))
	}
}

func mustHash(t *testing.T, o *catalog.Object) []byte {
	t.Helper()
	h, err := catalog.HashObject(o)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestInputAwaitingRefetch: between restart and Reattach an input the cache
// lost is named but not held, and says so.
func TestInputAwaitingRefetch(t *testing.T) {
	dir := t.TempDir()
	s := newStack(t, dir)
	v0 := s.seedDOV(t, "v0", 100)
	dop, err := s.tm.Begin("dop-r", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dop.Checkout(v0, false); err != nil {
		t.Fatal(err)
	}
	s.tm.Crash()
	wsDir := filepath.Join(dir, "ws1")
	damageCacheRecord(t, wsDir, v0, true)
	tm2, recovered := openWS(t, s, wsDir, "ws1-incarnation-2")
	if len(recovered) != 1 {
		t.Fatalf("recovered %d DOPs", len(recovered))
	}
	rdop := recovered[0]
	if _, err := rdop.Input(v0); err == nil || errors.Is(err, version.ErrUnknownDOV) {
		t.Fatalf("Input before Reattach = %v, want the awaiting-refetch error", err)
	}
	next, err := tm2.Begin("dop-next", "da1")
	if err != nil {
		t.Fatal(err)
	}
	if err := rdop.HandOver(next); err == nil {
		t.Fatal("HandOver of an unresolved input accepted")
	}
	if got := inputIDs(next); got != "[]" {
		t.Fatalf("refused HandOver left %s in the successor", got)
	}
	if err := tm2.Reattach(rdop); err != nil {
		t.Fatal(err)
	}
	if err := rdop.HandOver(next); err != nil {
		t.Fatal(err)
	}
	if got := inputIDs(next); got != "[v0]" {
		t.Fatalf("successor inputs = %s", got)
	}
}

// logDelta is what one step added to a log.
type logDelta struct{ appends, forces, bytes int64 }

func logState(l *wal.Log) logDelta {
	appends, _, syncs := l.Stats()
	return logDelta{int64(appends), int64(syncs), l.Size()}
}

func (a logDelta) sub(b logDelta) logDelta {
	return logDelta{a.appends - b.appends, a.forces - b.forces, a.bytes - b.bytes}
}

// TestForceTable pins the workstation rows of the force table in DESIGN.md
// §4.4: per step of one durable cycle, the records appended, the forces
// (fsyncs) paid and the bytes logged on the one workstation log, the
// coordinator's decision and end records included (the standalone
// coordinator's are pinned next to it in internal/rpc).
func TestForceTable(t *testing.T) {
	s := newStack(t, t.TempDir())
	v0 := s.seedDOV(t, "v0", 100)
	tm := s.tm
	var dop *DOP
	var ws []byte // the encoded workspace the checkin logs
	steps := []struct {
		name string
		do   func() error
		// want; bytes is an upper bound, wsBytes adds len(ws) to it and makes
		// len(ws) the lower bound.
		want    logDelta
		wsBytes bool
	}{
		{name: "Begin", want: logDelta{1, 0, 64}, do: func() (err error) {
			dop, err = tm.Begin("dop-f", "da1")
			return err
		}},
		{name: "Checkout", want: logDelta{1, 0, 96}, do: func() error {
			obj, err := dop.Checkout(v0, true)
			if err != nil {
				return err
			}
			obj.Set("cell", bigCell(16<<10, "f"))
			if ws, err = catalog.EncodeObject(obj); err != nil {
				return err
			}
			return dop.SetWorkspace(obj)
		}},
		// The decision (forced), its end record (rides), the post-checkin
		// context (forced, carrying the end record and the input-added one).
		{name: "Checkin", want: logDelta{3, 2, 224}, wsBytes: true, do: func() error {
			_, err := dop.Checkin(version.StatusWorking, false)
			return err
		}},
		// The end record rides the next cycle's decision.
		{name: "Commit", want: logDelta{1, 0, 32}, do: func() error { return dop.Commit() }},
	}
	var total logDelta
	for _, st := range steps {
		before := logState(tm.log)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got := logState(tm.log).sub(before)
		total = logDelta{total.appends + got.appends, total.forces + got.forces, 0}
		if got.appends != st.want.appends || got.forces != st.want.forces {
			t.Errorf("%s: %d records, %d forces; want %d, %d", st.name, got.appends, got.forces, st.want.appends, st.want.forces)
		}
		var lo int64
		if st.wsBytes {
			lo = int64(len(ws)) // the workspace once — and no input beside it
		}
		if got.bytes < lo || got.bytes > lo+st.want.bytes {
			t.Errorf("%s: %d bytes logged, want %d..%d", st.name, got.bytes, lo, lo+st.want.bytes)
		}
	}
	if total.appends != 6 || total.forces != 2 {
		t.Errorf("per cycle: %d records, %d forces; want 6, 2", total.appends, total.forces)
	}
}
