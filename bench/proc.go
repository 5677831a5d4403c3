package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ; /proc reports process CPU in these.
const clockTick = 10 * time.Millisecond

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	user, sys   time.Duration
	ctxSwitches uint64 // voluntary + involuntary, all threads
	rssPeakKiB  uint64 // VmHWM
	openFDs     int
}

func (p procSample) cpu() time.Duration { return p.user + p.sys }

func readProc(pid int) (procSample, error) {
	var s procSample
	root := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(root + "/stat")
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; the numeric fields follow the last ')'.
	// utime and stime are fields 14 and 15, i.e. 11 and 12 after the state.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("proc: malformed %s/stat", root)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("proc: malformed cpu fields in %s/stat", root)
	}
	s.user, s.sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick

	status, err := os.ReadFile(root + "/status")
	if err != nil {
		return s, err
	}
	s.rssPeakKiB = statusField(status, "VmHWM:")
	tasks, err := os.ReadDir(root + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		// A thread may exit between the listing and the read; its switches
		// are then lost, which is fine for a per-op average.
		if ts, err := os.ReadFile(root + "/task/" + t.Name() + "/status"); err == nil {
			s.ctxSwitches += statusField(ts, "voluntary_ctxt_switches:") + statusField(ts, "nonvoluntary_ctxt_switches:")
		}
	}
	fds, err := os.ReadDir(root + "/fd")
	if err != nil {
		return s, err
	}
	s.openFDs = len(fds)
	return s, nil
}

// statusField reads one "Key:   123 kB" line of a /proc status file.
func statusField(status []byte, key string) uint64 {
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, key) {
			if f := strings.Fields(line[len(key):]); len(f) > 0 {
				v, _ := strconv.ParseUint(f[0], 10, 64) // 0 on a malformed line
				return v
			}
		}
	}
	return 0
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir, and of those among
// them that belong to a write-ahead log (a *.wal file or a segment under a
// *.wal directory).
func dirBytes(dir string) (total, wal int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.Contains(path[len(dir):], ".wal") {
			wal += info.Size()
		}
		return nil
	})
	return total, wal, err
}
