package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"concord/internal/fault"
)

// fill appends n records of ~40 bytes each and returns their LSNs.
func fill(t *testing.T, l *Log, n int, tag string) []LSN {
	t.Helper()
	lsns := make([]LSN, 0, n)
	for i := 0; i < n; i++ {
		lsn, err := l.Append(9, "owner", []byte(fmt.Sprintf("%s-%04d-padpadpadpadpad", tag, i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		lsns = append(lsns, lsn)
	}
	return lsns
}

func replayLSNs(t *testing.T, l *Log) []LSN {
	t.Helper()
	var out []LSN
	if err := l.Replay(func(r Record) error { out = append(out, r.LSN); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestSegmentRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rot.wal")
	l, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	lsns := fill(t, l, 50, "r")
	if l.SegmentCount() < 3 {
		t.Fatalf("SegmentCount = %d, want >= 3 with 200-byte segments", l.SegmentCount())
	}
	got := replayLSNs(t, l)
	if len(got) != len(lsns) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(lsns))
	}
	for i := range got {
		if got[i] != lsns[i] {
			t.Fatalf("record %d at LSN %d, want %d", i, got[i], lsns[i])
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the whole multi-segment log replays identically and appends
	// continue at the tail.
	l2, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got = replayLSNs(t, l2)
	if len(got) != len(lsns) {
		t.Fatalf("replayed %d records after reopen, want %d", len(got), len(lsns))
	}
	lsn, err := l2.Append(9, "owner", []byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= lsns[len(lsns)-1] {
		t.Fatalf("post-reopen LSN %d not after tail %d", lsn, lsns[len(lsns)-1])
	}
}

func TestCheckpointDeletesCoveredSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "del.wal")
	l, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsns := fill(t, l, 60, "d")
	segsBefore, diskBefore := l.SegmentCount(), l.DiskBytes()
	mark := lsns[40]
	if err := l.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() >= segsBefore {
		t.Fatalf("segments %d -> %d: checkpoint deleted nothing", segsBefore, l.SegmentCount())
	}
	if l.DiskBytes() >= diskBefore {
		t.Fatalf("disk bytes %d -> %d: checkpoint freed nothing", diskBefore, l.DiskBytes())
	}
	got := replayLSNs(t, l)
	want := lsns[40:]
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want the %d at/above the mark", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d at LSN %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCheckpointSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark.wal")
	l, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	lsns := fill(t, l, 40, "m")
	mark := lsns[25]
	if err := l.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LowWater() != mark {
		t.Fatalf("LowWater after reopen = %d, want %d", l2.LowWater(), mark)
	}
	got := replayLSNs(t, l2)
	if len(got) != len(lsns[25:]) || got[0] != mark {
		t.Fatalf("replay after reopen: %d records starting at %v, want %d starting at %d",
			len(got), got[:1], len(lsns[25:]), mark)
	}
}

// TestCheckpointBeyondTail covers the recovery-completion path: a snapshot
// installed at an LSN the log never made durable (crash between snapshot
// install and log force). The log must restart at that LSN and never hand
// out an LSN below it again.
func TestCheckpointBeyondTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "adv.wal")
	l, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 10, "a")
	mark := LSN(l.Size() + 999)
	if err := l.Checkpoint(mark); err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(mark) {
		t.Fatalf("Size after advance = %d, want %d", l.Size(), mark)
	}
	lsn, err := l.Append(9, "owner", []byte("after-advance"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != mark {
		t.Fatalf("first post-advance LSN = %d, want %d", lsn, mark)
	}
	if got := replayLSNs(t, l); len(got) != 1 || got[0] != mark {
		t.Fatalf("replay after advance = %v, want [%d]", got, mark)
	}
	l.Close()
	l2, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayLSNs(t, l2); len(got) != 1 || got[0] != mark {
		t.Fatalf("replay after reopen = %v, want [%d]", got, mark)
	}
}

// TestCheckpointMonotonic: a mark at or below the current low-water is a
// no-op, so a stale caller can never resurrect deleted history.
func TestCheckpointMonotonic(t *testing.T) {
	l := openTemp(t)
	lsns := fill(t, l, 10, "n")
	if err := l.Checkpoint(lsns[8]); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(lsns[2]); err != nil {
		t.Fatal(err)
	}
	if l.LowWater() != lsns[8] {
		t.Fatalf("LowWater = %d, want %d (monotonic)", l.LowWater(), lsns[8])
	}
}

// errCrash is the sentinel the crash hook returns.
var errCrash = errors.New("injected crash")

// TestCheckpointCrashPoints drives wal.Checkpoint into a simulated crash at
// every protocol step and verifies the reopened log loses nothing that was
// not durably checkpointed: every record at or above the new mark survives,
// and records below it are only skipped once the mark is durably installed.
func TestCheckpointCrashPoints(t *testing.T) {
	points := []string{CrashBeforeMark, CrashMarkTmp, CrashMarkInstalled, CrashSegmentDeleted}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "crash.wal")
			reg := fault.New()
			l, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200, Faults: reg})
			if err != nil {
				t.Fatal(err)
			}
			lsns := fill(t, l, 60, "c")
			mark := lsns[40]
			reg.Arm(point, errCrash)
			err = l.Checkpoint(mark)
			if !errors.Is(err, errCrash) {
				t.Fatalf("Checkpoint with crash at %s = %v, want injected crash", point, err)
			}
			// Simulate the process dying: abandon l without Close and reopen
			// the directory.
			l2, err := Open(path, Options{SyncOnAppend: true, SegmentBytes: 200})
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", point, err)
			}
			defer l2.Close()
			lw := l2.LowWater()
			if lw != 0 && lw != mark {
				t.Fatalf("LowWater after crash at %s = %d, want 0 or %d", point, lw, mark)
			}
			// Open completes an interrupted deletion: no sealed segment may
			// survive lying entirely below the recovered low-water mark.
			starts, err := listSegments(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(starts); i++ {
				if LSN(starts[i+1]) <= lw {
					t.Fatalf("crash at %s: covered segment %d leaked past reopen (low-water %d)", point, starts[i], lw)
				}
			}
			got := replayLSNs(t, l2)
			want := lsns
			if lw == mark {
				want = lsns[40:]
			}
			if len(got) != len(want) {
				t.Fatalf("crash at %s: replayed %d records, want %d (low-water %d)", point, len(got), len(want), lw)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("crash at %s: record %d at LSN %d, want %d", point, i, got[i], want[i])
				}
			}
			// The log stays fully usable: the next checkpoint completes.
			if err := l2.Checkpoint(mark); err != nil {
				t.Fatalf("re-checkpoint after crash at %s: %v", point, err)
			}
			if l2.LowWater() != mark {
				t.Fatalf("LowWater after re-checkpoint = %d, want %d", l2.LowWater(), mark)
			}
		})
	}
}

// TestSingleFileLogRefused: a log in the single-file layout that preceded
// segment directories is refused with errSingleFileLog and left exactly as
// it was, with nothing created beside it.
func TestSingleFileLogRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	var raw []byte
	for i := 0; i < 3; i++ {
		buf, err := frameInto(nil, 5, "legacy", []byte(fmt.Sprintf("old-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, buf...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Options{SyncOnAppend: true})
	if !errors.Is(err, errSingleFileLog) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open over a single-file log = %v, want errSingleFileLog", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("single-file log gone after the refusal: %v", err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("single-file log changed by the refused Open")
	}
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries after the refusal (err=%v), want only the log", len(ents), err)
	}
}
