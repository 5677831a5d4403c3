//go:build linux

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
	"concord/internal/version"
	"concord/internal/vlsi"
)

var servingLine = regexp.MustCompile(`serving on (\S+), data in .* \((\d+) DOVs recovered`)

// daemon is a running concordd subprocess.
type daemon struct {
	cmd       *exec.Cmd
	addr      string
	recovered int
	logged    chan struct{} // closed when stderr hits EOF
}

// startDaemon execs bin on a kernel-assigned loopback port over dir and
// returns once its serving line is out.
func startDaemon(t *testing.T, bin, dir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-health-every", "0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{})}
	t.Cleanup(d.kill)
	ready := make(chan error, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		var seen []string
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				d.addr = m[1]
				d.recovered, _ = strconv.Atoi(m[2]) // \d+ by the pattern
				ready <- nil
				io.Copy(io.Discard, stderr) //nolint:errcheck // drain until exit
				return
			}
			seen = append(seen, sc.Text())
		}
		ready <- fmt.Errorf("concordd exited before serving: %s", strings.Join(seen, " | "))
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("concordd did not serve within 60s")
	}
	return d
}

// kill ends the daemon with SIGKILL, as a crash would, and reaps it once
// its log is drained.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.logged
	d.cmd.Wait() //nolint:errcheck // killed: the exit status carries no news
}

// repoWALBytes sums the repository log's segment files under dir.
func repoWALBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "repo.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// TestDaemonCheckpoints runs the built daemon as an operator would: once
// more than the checkpoint threshold has been checked in over TCP, the
// snapshot manifest appears under -data and the log shrinks behind it, and
// after a SIGKILL the restarted daemon recovers every version.
func TestDaemonCheckpoints(t *testing.T) {
	const n, cellBytes = 64, 256 << 10 // 16 MiB of payload, logged twice
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build concordd with")
	}
	bin := filepath.Join(t.TempDir(), "concordd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build concordd: %v\n%s", err, out)
	}
	// No wire method creates a design activity: seed one offline.
	dir := t.TempDir()
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateGraph("da1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, bin, dir)
	tr := rpc.NewTCP()
	defer tr.Close()
	tm, _, err := txn.NewClientTM("ws1", rpc.NewClient(tr, "ws1"), d.addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tm.Close()
	cell := strings.Repeat("c", cellBytes)
	for i := 0; i < n; i++ {
		dop, err := tm.Begin("", "da1")
		if err != nil {
			t.Fatal(err)
		}
		obj := catalog.NewObject(vlsi.DOTFloorplan).Set("cell", catalog.Str(cell)).Set("area", catalog.Float(float64(i)))
		if err := dop.SetWorkspace(obj); err != nil {
			t.Fatal(err)
		}
		if _, err := dop.Checkin(version.StatusWorking, true); err != nil {
			t.Fatal(err)
		}
		if err := dop.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// The log holds two copies of every payload until a checkpoint drops
	// the prefix it covers; after it, at most the threshold plus the
	// segment the mark falls in.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		_, err := os.Stat(filepath.Join(dir, repo.ManifestFileName))
		if err == nil && repoWALBytes(t, dir) < n*cellBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after %d MiB checked in (manifest: %v, log %d bytes)", n*cellBytes>>20, err, repoWALBytes(t, dir))
		}
	}

	d.kill()
	if d = startDaemon(t, bin, dir); d.recovered != n {
		t.Fatalf("restart after SIGKILL recovered %d DOVs, want %d", d.recovered, n)
	}
}
