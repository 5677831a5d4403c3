package main

// stack.go and layers.go are the only files of the benchmark that name
// concord/internal packages: stack.go seeds a data directory, controls the
// concordd subprocess and assembles workstations; layers.go holds the layer
// ladder and probes. A refactor of server assembly or of the Serve*/Dedup*
// variants meets the benchmark here and nowhere else.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/feature"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// seedObject is one design object version installed before concordd boots.
type seedObject struct{ id, payload string }

// seedDA is one design activity and the versions its graph starts with, each
// a root of its own.
type seedDA struct {
	id      string
	objects []seedObject
}

// netlist builds the design object every workload moves: a "netlist" whose
// bulk is the opaque data attribute.
func netlist(cell, payload string) *catalog.Object {
	return catalog.NewObject(vlsi.DOTNetlist).
		Set("cell", catalog.Str(cell)).
		Set("data", catalog.Str(payload))
}

// seedDataDir writes a data directory concordd can boot from. No wire method
// creates a design activity, so this goes through the same packages concordd
// recovers with: the cooperation manager persists the DA records from which
// a booting server re-derives its scope table.
func seedDataDir(dir string, das []seedDA) error {
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir})
	if err != nil {
		return err
	}
	cm, err := coop.NewCM(r, lock.NewScopeTable(), feature.NewRegistry())
	if err != nil {
		r.Close()
		return err
	}
	err = func() error {
		for _, da := range das {
			if err := cm.InitDesign(coop.Config{ID: da.id, DOT: vlsi.DOTNetlist, Designer: "bench"}); err != nil {
				return err
			}
			if err := cm.Start(da.id); err != nil {
				return err
			}
			for _, o := range da.objects {
				v := &version.DOV{
					ID: version.ID(o.id), DOT: vlsi.DOTNetlist, DA: da.id,
					Object: netlist(da.id, o.payload), Status: version.StatusWorking,
				}
				if err := r.Checkin(v, true); err != nil {
					return fmt.Errorf("seed %s: %w", o.id, err)
				}
			}
		}
		return r.Log().Sync()
	}()
	cm.Close()
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return err
}

// server is a running concordd subprocess.
type server struct {
	cmd       *exec.Cmd
	addr      string        // bound address, from the "serving on" line
	recovered int           // "N DOVs recovered" of the same line
	boot      time.Duration // exec to "serving on"
	logged    chan struct{} // closed when stderr hits EOF
}

var servingLine = regexp.MustCompile(`serving on (\S+), data in .* \((\d+) DOVs recovered`)

// startServer launches bin exactly as an operator would, on an
// kernel-assigned loopback port, and returns once it serves.
func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-health-every", "0")
	// concordd must not outlive the generator, however the generator dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logged: make(chan struct{})}
	ready := make(chan error, 1) // one send: the serving line or the failure to see it
	go func() {
		defer close(s.logged)
		var seen []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				s.boot = time.Since(start)
				s.addr = m[1]
				s.recovered, _ = strconv.Atoi(m[2]) // \d+ by the pattern
				ready <- nil
				io.Copy(io.Discard, stderr) //nolint:errcheck // drain until exit
				return
			}
			seen = append(seen, line)
		}
		ready <- fmt.Errorf("concordd exited before serving: %s", strings.Join(seen, " | "))
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.kill()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("concordd did not serve within 60s")
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill ends concordd with SIGKILL, as a crash would, and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-s.logged
	s.cmd.Wait() //nolint:errcheck // killed: the exit status carries no news
}

// tracedTransport is the span-recording decorator round the transport handed
// to rpc.NewClient: one rpc span per wire attempt, named by wire method.
type tracedTransport struct {
	*rpc.TCP
	rec *spanRecorder
}

func (t *tracedTransport) Call(addr, method string, payload []byte) ([]byte, error) {
	return t.CallBudget(addr, method, payload, 0)
}

func (t *tracedTransport) CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error) {
	if !t.rec.enabled() {
		return t.TCP.CallBudget(addr, method, payload, budget)
	}
	start := time.Now()
	resp, err := t.TCP.CallBudget(addr, method, payload, budget)
	t.rec.record(kindRPC, method, start, time.Now())
	return resp, err
}

// station is one workstation: a client-TM over its own TCP transport, with a
// callback listener for cache invalidations, as core.System attaches one.
type station struct {
	id  string
	tm  *txn.ClientTM
	tr  *rpc.TCP
	rec *spanRecorder // nil in an untraced run
}

// stationSeq makes rpc client IDs unique across the incarnations a run opens
// against one server (request IDs are deduplicated per client ID).
var stationSeq atomic.Uint64

// openStation attaches a workstation to the server at addr. dir is its disk
// (client-tm.wal, client-coord.wal, cache); empty makes it volatile. One
// connection per workstation keeps connections at the client count.
func openStation(id, addr, dir string, rec *spanRecorder) (*station, error) {
	tr := rpc.NewTCP()
	tr.PoolSize = 1
	var transport rpc.Transport = tr
	if rec != nil {
		transport = &tracedTransport{TCP: tr, rec: rec}
	}
	client := rpc.NewClient(transport, fmt.Sprintf("%s@%d.%d", id, os.Getpid(), stationSeq.Add(1)))
	tm, _, err := txn.NewClientTM(id, client, addr, dir)
	if err != nil {
		tr.Close()
		return nil, err
	}
	cb, err := tr.Listen("127.0.0.1:0", rpc.Dedup(tm.Cache().Handler()))
	if err != nil {
		tm.Close()
		tr.Close()
		return nil, err
	}
	tm.SetCallbackAddr(cb)
	return &station{id: id, tm: tm, tr: tr, rec: rec}, nil
}

func (s *station) close() {
	s.tm.Close() //nolint:errcheck // nothing to save at the end of a run
	s.tr.Close() //nolint:errcheck // same
}

// wireCounts is the client-TM's own account of its traffic.
type wireCounts struct {
	bytes                    uint64 // checkout in+out and checkin out
	notModified, delta, full uint64 // checkout answers by mode
}

func (s *station) wire() wireCounts {
	w := s.tm.WireStats()
	return wireCounts{
		bytes:       w.CheckoutBytesOut + w.CheckoutBytesIn + w.CheckinBytesOut,
		notModified: w.NotModified, delta: w.DeltaCheckouts, full: w.FullCheckouts,
	}
}

// dop is one design operation in progress on a station.
type dop struct {
	d       *txn.DOP
	derived *catalog.Object // the last derive-checkout, to be mutated and checked in
}

func (s *station) begin(da string) (*dop, error) {
	d, err := s.tm.Begin("", da)
	if err != nil {
		return nil, err
	}
	return &dop{d: d}, nil
}

// checkout returns the data attribute of the version.
func (d *dop) checkout(id string, derive bool) (string, error) {
	obj, err := d.d.Checkout(version.ID(id), derive)
	if err != nil {
		return "", err
	}
	if derive {
		d.derived = obj
	}
	v, _ := obj.Get("data")
	return v.S, nil
}

// checkin installs payload as a new version derived from the DOP's inputs
// and returns its ID.
func (d *dop) checkin(payload string) (string, error) {
	if d.derived == nil {
		return "", errors.New("checkin without a derive-checkout")
	}
	d.derived.Set("data", catalog.Str(payload))
	if err := d.d.SetWorkspace(d.derived); err != nil {
		return "", err
	}
	id, err := d.d.Checkin(version.StatusWorking, false)
	return string(id), err
}

func (d *dop) commit() error { return d.d.Commit() }
