package txn

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"concord/internal/catalog"
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

// cacheEntryFile names the persisted cache entry of id under wsDir.
func cacheEntryFile(wsDir string, id version.ID) string {
	return (&ObjectCache{dir: filepath.Join(wsDir, "cache")}).entryPath(id)
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

// TestClientTMOwnsBothLogs: client-coord.wal used to be closed by nobody —
// not by Close, not by Crash, not on NewClientTM's error paths.
func TestClientTMOwnsBothLogs(t *testing.T) {
	s := newStack(t, "")
	open := func(dir, id string) (*ClientTM, error) {
		client := rpc.NewClient(s.trans, id)
		client.Backoff = 0
		tm, _, err := NewClientTM("ws1", client, serverAddr, dir)
		return tm, err
	}
	good := filepath.Join(t.TempDir(), "ws1")
	// A workstation whose client log NewClientTM refuses after both logs and
	// the coordinator are up: the error path that opened the most.
	foreign := filepath.Join(t.TempDir(), "ws1")
	l, err := wal.Open(filepath.Join(foreign, "client-tm.wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(0x41, "dop", []byte("gob")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	round := func(i int) {
		tm, err := open(good, fmt.Sprintf("fd-%d", i))
		if err != nil {
			t.Fatal(err)
		}
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
	}
	round(0) // whatever is opened once and kept is open before the count
	before := openFDs(t)
	for i := 1; i <= 50; i++ {
		round(i)
	}
	if after := openFDs(t); after != before {
		t.Fatalf("open descriptors %d → %d over 50 open/close rounds", before, after)
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
	cycle := func(i int) {
		t.Helper()
		d, err := tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
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
	_, recovered := openWS(t, s, wsDir, "bounded-2")
	var got []string
	for _, d := range recovered {
		got = append(got, fmt.Sprintf("%s/%s%s", d.ID(), d.Phase(), inputIDs(d)))
	}
	want := fmt.Sprintf("[live-active/active[%s] live-suspended/suspended[]]", tip)
	if fmt.Sprint(got) != want {
		t.Fatalf("recovered %v, want %s", got, want)
	}
}

// TestRecoveryLogCrashMatrix drives one DOP to a crash and restarts the
// workstation from what the crash left: the client log by reference must
// restore the DOP at its last durable point whatever happened to the unforced
// tail of the log or to the cache the references point into.
//
// Every case runs the same prefix — Begin, derive-checkout of v0, workspace,
// Save (the forced point), derive-checkout of v1 (unforced) — and differs in
// how the workstation dies and what its disk loses.
func TestRecoveryLogCrashMatrix(t *testing.T) {
	type run struct {
		s     *stack
		wsDir string // the disk the next incarnation boots from
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
	cases := []struct {
		name string
		// crash kills the workstation and damages its disk.
		crash func(t *testing.T, r *run)
		// inputs the restored DOP must hold, and which of them Reattach has
		// to refetch from the server because the cache lost them.
		inputs    string
		refetched uint64
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
				if err := os.Remove(cacheEntryFile(r.wsDir, "v0")); err != nil {
					t.Fatal(err)
				}
			},
			inputs: "[v0 v1]", refetched: 1,
		},
		{
			name: "cache entry corrupted",
			crash: func(t *testing.T, r *run) {
				die(t, r, true)
				path := cacheEntryFile(r.wsDir, "v1")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xFF
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
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
			if err := tm2.Reattach(rdop); err != nil {
				t.Fatalf("Reattach: %v", err)
			}
			// Exactly the inputs the cache lost went back to the server, each
			// as one cache-blind full transfer.
			if w := tm2.WireStats(); w.Checkouts != tc.refetched || w.FullCheckouts != tc.refetched {
				t.Fatalf("Reattach made %d checkouts (%d full), want %d", w.Checkouts, w.FullCheckouts, tc.refetched)
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
			// The derivation locks never left the server, and a checkout the
			// crash rolled back is repeated under the same lock, re-entrantly.
			for _, id := range []version.ID{v0, v1} {
				if m := s.locks.Holds("dop-m", "dov/"+string(id)); m != lock.D {
					t.Fatalf("derivation lock on %s = %v, want D", id, m)
				}
			}
			if tc.inputs == "[v0]" {
				if _, err := rdop.Checkout(v1, true); err != nil {
					t.Fatalf("re-checkout of the rolled-back input: %v", err)
				}
				if w := tm2.WireStats(); w.NotModified != 1 {
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
	if err := os.Remove(cacheEntryFile(wsDir, v0)); err != nil {
		t.Fatal(err)
	}
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
// (fsyncs) paid and the bytes logged, on each of the two workstation logs.
// The coordinator's own two are pinned next to it in internal/rpc.
func TestForceTable(t *testing.T) {
	s := newStack(t, t.TempDir())
	v0 := s.seedDOV(t, "v0", 100)
	tm := s.tm
	var dop *DOP
	var ws []byte // the encoded workspace the checkin logs
	steps := []struct {
		name string
		do   func() error
		// want per log; bytes is an upper bound, wsBytes adds len(ws) to it
		// and makes len(ws) the lower bound.
		tm, coord logDelta
		wsBytes   bool
	}{
		{name: "Begin", tm: logDelta{1, 0, 64}, do: func() (err error) {
			dop, err = tm.Begin("dop-f", "da1")
			return err
		}},
		{name: "Checkout", tm: logDelta{1, 0, 96}, do: func() error {
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
		{name: "Checkin", tm: logDelta{1, 1, 128}, wsBytes: true, coord: logDelta{2, 2, 96}, do: func() error {
			_, err := dop.Checkin(version.StatusWorking, false)
			return err
		}},
		{name: "Commit", tm: logDelta{1, 1, 32}, do: func() error { return dop.Commit() }},
	}
	for _, st := range steps {
		tm0, coord0 := logState(tm.log), logState(tm.coordLog)
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check := func(log string, got, want logDelta, lo int64) {
			t.Helper()
			if got.appends != want.appends || got.forces != want.forces {
				t.Errorf("%s on %s: %d records, %d forces; want %d, %d", st.name, log, got.appends, got.forces, want.appends, want.forces)
			}
			if got.bytes < lo || got.bytes > lo+want.bytes {
				t.Errorf("%s on %s: %d bytes logged, want %d..%d", st.name, log, got.bytes, lo, lo+want.bytes)
			}
		}
		var lo int64
		if st.wsBytes {
			lo = int64(len(ws)) // the workspace once — and no input beside it
		}
		check("client-tm.wal", logState(tm.log).sub(tm0), st.tm, lo)
		check("client-coord.wal", logState(tm.coordLog).sub(coord0), st.coord, 0)
	}
}
