package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/fault"
	"concord/internal/feature"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/server"
	"concord/internal/txn"
	"concord/internal/vlsi"
	"concord/internal/wal"
)

// errUnsupported reports a site operation the deployment cannot express
// (e.g. delegation without a cooperation manager); the driver falls back.
var errUnsupported = errors.New("scenario: operation unsupported by this deployment")

// site abstracts one deployed CONCORD instance so the driver and oracles
// run identically over the in-process and TCP deployments.
type site interface {
	// begin starts a DOP with an explicit ID on workstation ws.
	begin(ws int, dopID, da string) (*txn.DOP, error)
	// repo returns the live server repository (nil while crashed).
	repo() *repo.Repository
	// catalog returns the shared DOT catalog (for twin replay).
	catalog() *catalog.Catalog
	// newDA creates and starts a top-level design area.
	newDA(id string) error
	// delegate creates and starts a sub-DA under parent (errUnsupported
	// when the deployment has no cooperation manager).
	delegate(parent, child string) error
	// checkpoint snapshots the repository and compacts the server logs.
	checkpoint() error
	// crashRestartServer kills the server site and recovers it from disk;
	// tornTail corrupts the repository WAL's active segment in between and
	// tornManifest corrupts the snapshot chain manifest's tail.
	crashRestartServer(tornTail, tornManifest bool) error
	// crashRestartWS crashes workstation ws and re-attaches a fresh
	// incarnation (cache epoch bump).
	crashRestartWS(ws int) error
	// serverTM returns the live server transaction manager (nil while the
	// server is crashed); lease scenarios inspect and force-reap through it.
	serverTM() *txn.ServerTM
	// vanishWS kills workstation ws WITHOUT restarting it: heartbeats stop
	// and the lease is left to expire. reviveWS boots its next incarnation.
	vanishWS(ws int) error
	// reviveWS boots the next incarnation of a vanished workstation and
	// reports how many persisted DOP contexts it recovered.
	reviveWS(ws int) (int, error)
	// killPrimary crashes the primary server WITHOUT restart: the warm
	// standby keeps running and client-driven takeover must promote it
	// (errUnsupported without a replicated deployment).
	killPrimary() error
	// partitionPrimary isolates a LIVE primary from every workstation (the
	// split-brain precondition); healPrimary reconnects it.
	partitionPrimary() error
	healPrimary() error
	// crashStandby kills the warm standby (a synchronous primary degrades to
	// trailing); restartStandby recovers it from its durable replicated
	// state so the sender can catch it back up.
	crashStandby() error
	restartStandby() error
	// replHealth reports the deployment's replication role, epoch and mode.
	replHealth() (core.ReplHealth, error)
	// standbyRepo returns the standby's live follower repository (nil while
	// crashed or unreplicated).
	standbyRepo() *repo.Repository
	// primaryRepo returns the original primary's repository even after a
	// promotion deposed it (the split-brain oracle pokes it directly).
	primaryRepo() *repo.Repository
	// wsServerAddr reports which server address workstation ws's session
	// currently targets (client-driven takeover detection).
	wsServerAddr(ws int) (string, error)
	// health reports the server's degradation mode and latched cause.
	health() (mode, cause string)
	// serverRepoDir is the repository directory for the twin-replay oracle.
	serverRepoDir() string
	// close shuts everything down (idempotent).
	close()
}

// scenarioSpec is the permissive design goal shared by all scenario DAs.
func scenarioSpec() *feature.Spec {
	return feature.MustSpec(feature.Range("area-limit", "area", 0, 1e12))
}

// wsName names workstation i.
func wsName(i int) string { return fmt.Sprintf("ws%02d", i) }

// corruptWALTail appends garbage to the highest-numbered segment of the WAL
// directory at walDir, simulating a torn partial write of the next record.
// Committed records precede the garbage, so recovery must truncate the tail
// without losing any of them.
func corruptWALTail(walDir string) error {
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return err
	}
	var last string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") && (last == "" || e.Name() > last) {
			last = e.Name()
		}
	}
	if last == "" {
		return fmt.Errorf("scenario: no WAL segment in %s", walDir)
	}
	f, err := os.OpenFile(filepath.Join(walDir, last), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := make([]byte, 37)
	for i := range garbage {
		garbage[i] = 0xA5
	}
	_, err = f.Write(garbage)
	return err
}

// corruptManifestTail appends garbage to the snapshot chain manifest of the
// repository at repoDir, simulating a crash mid-append of an incremental
// checkpoint's manifest frame. The WAL mark only ever covers fsync-durable
// entries, so recovery must shed the garbage tail without losing anything.
func corruptManifestTail(repoDir string) error {
	f, err := os.OpenFile(filepath.Join(repoDir, repo.ManifestFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0xA5, 0xA5, 0xA5, 0xA5, 0x00, 0xFF, 0x17})
	return err
}

// inprocSite deploys a core.System: the single-process deployment with the
// cooperation manager, callback channel and full crash/restart support.
type inprocSite struct {
	sys *core.System
	dir string

	mu sync.Mutex
	ws []*core.Workstation
}

// newInProcSite boots a core.System with n workstations.
func newInProcSite(dir string, topo Topology, reg *fault.Registry) (*inprocSite, error) {
	sys, err := core.NewSystem(core.Options{
		Dir:                  dir,
		RegisterTypes:        vlsi.RegisterCatalog,
		VolatileWorkstations: topo.VolatileWS,
		SegmentBytes:         topo.SegmentBytes,
		CheckpointMaxChain:   topo.CheckpointMaxChain,
		QuiescentCheckpoint:  topo.QuiescentCheckpoint,
		LeaseTTL:             topo.LeaseTTL,
		HeartbeatEvery:       topo.HeartbeatEvery,
		DegradedOnWALFailure: topo.DegradedOnWALFailure,
		Replicated:           topo.Replicated,
		SyncReplication:      topo.SyncReplication,
		Faults:               reg,
	})
	if err != nil {
		return nil, err
	}
	s := &inprocSite{sys: sys, dir: dir}
	for i := 0; i < topo.Workstations; i++ {
		w, err := sys.AddWorkstation(wsName(i))
		if err != nil {
			sys.Close()
			return nil, err
		}
		s.ws = append(s.ws, w)
	}
	return s, nil
}

func (s *inprocSite) begin(ws int, dopID, da string) (*txn.DOP, error) {
	s.mu.Lock()
	w := s.ws[ws]
	s.mu.Unlock()
	return w.Begin(dopID, da)
}

func (s *inprocSite) repo() *repo.Repository    { return s.sys.Repo() }
func (s *inprocSite) catalog() *catalog.Catalog { return s.sys.Catalog() }

// serverRepoDir names the directory holding the ACTIVE repository: after a
// failover scenario promoted the warm standby, the twin-replay oracle must
// replay the replicated state it now serves, not the deposed primary's.
func (s *inprocSite) serverRepoDir() string {
	if s.sys.ReplHealth().StandbyPromoted {
		return filepath.Join(s.dir, "standby")
	}
	return filepath.Join(s.dir, "server")
}

func (s *inprocSite) newDA(id string) error {
	cfg := coop.Config{ID: id, DOT: vlsi.DOTFloorplan, Spec: scenarioSpec(), Designer: id}
	if err := s.sys.CM().InitDesign(cfg); err != nil {
		return err
	}
	return s.sys.CM().Start(id)
}

func (s *inprocSite) delegate(parent, child string) error {
	cfg := coop.Config{ID: child, DOT: vlsi.DOTFloorplan, Spec: scenarioSpec(), Designer: child}
	if err := s.sys.CM().CreateSubDA(parent, cfg); err != nil {
		return err
	}
	return s.sys.CM().Start(child)
}

func (s *inprocSite) checkpoint() error { return s.sys.Checkpoint() }

func (s *inprocSite) crashRestartServer(tornTail, tornManifest bool) error {
	if err := s.sys.CrashServer(); err != nil {
		return err
	}
	if tornTail {
		if err := corruptWALTail(filepath.Join(s.serverRepoDir(), "repo.wal")); err != nil {
			return err
		}
	}
	if tornManifest {
		if err := corruptManifestTail(s.serverRepoDir()); err != nil {
			return err
		}
	}
	return s.sys.RestartServer()
}

func (s *inprocSite) crashRestartWS(ws int) error {
	if err := s.vanishWS(ws); err != nil {
		return err
	}
	_, err := s.reviveWS(ws)
	return err
}

func (s *inprocSite) serverTM() *txn.ServerTM { return s.sys.ServerTM() }

func (s *inprocSite) vanishWS(ws int) error {
	return s.sys.CrashWorkstation(wsName(ws))
}

func (s *inprocSite) reviveWS(ws int) (int, error) {
	w, err := s.sys.AddWorkstation(wsName(ws))
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.ws[ws] = w
	s.mu.Unlock()
	return len(w.RecoveredDOPs()), nil
}

func (s *inprocSite) killPrimary() error { return s.sys.CrashServer() }
func (s *inprocSite) partitionPrimary() error {
	s.sys.Transport().Partition(core.ServerAddr)
	return nil
}
func (s *inprocSite) healPrimary() error    { s.sys.Transport().Heal(core.ServerAddr); return nil }
func (s *inprocSite) crashStandby() error   { return s.sys.CrashStandby() }
func (s *inprocSite) restartStandby() error { return s.sys.RestartStandby() }

func (s *inprocSite) replHealth() (core.ReplHealth, error) { return s.sys.ReplHealth(), nil }
func (s *inprocSite) standbyRepo() *repo.Repository        { return s.sys.StandbyRepo() }
func (s *inprocSite) primaryRepo() *repo.Repository        { return s.sys.PrimaryRepo() }

func (s *inprocSite) wsServerAddr(ws int) (string, error) {
	s.mu.Lock()
	w := s.ws[ws]
	s.mu.Unlock()
	return w.TM().ServerAddr(), nil
}

func (s *inprocSite) health() (string, string) { return s.sys.Health() }

func (s *inprocSite) close() {
	s.mu.Lock()
	sys := s.sys
	s.sys = nil
	s.mu.Unlock()
	if sys != nil {
		sys.Close()
	}
}

// tcpSite deploys the LAN shape of Sect. 5.1 over real sockets: the server
// site (server.Assemble, as cmd/concordd runs it) behind one rpc.TCP listener
// and one ClientTM per workstation, each with its own TCP transport.
// Cache-invalidation callbacks flow over the sockets too: each workstation
// serves its cache handler on a loopback listener of its own transport and
// the server's notifier dials back to it. Design areas are plain derivation
// graphs, not CM-managed: delegation is unsupported.
type tcpSite struct {
	cat         *catalog.Catalog
	reg         *fault.Registry
	dir         string
	addr        string
	segBytes    int64
	maxChain    int
	quiescent   bool
	leaseTTL    time.Duration
	degradedWAL bool

	mu    sync.Mutex
	site  *server.Site // nil while the server is crashed
	plog  *wal.Log
	srv   *rpc.TCP
	epoch int

	tms    []*txn.ClientTM
	trans  []*rpc.TCP
	closed bool
}

// newTCPSite assembles the server and n workstations over real sockets.
func newTCPSite(dir string, topo Topology, reg *fault.Registry) (*tcpSite, error) {
	cat := catalog.New()
	if err := vlsi.RegisterCatalog(cat); err != nil {
		return nil, err
	}
	s := &tcpSite{
		cat: cat, reg: reg, dir: dir,
		segBytes: topo.SegmentBytes, maxChain: topo.CheckpointMaxChain,
		quiescent: topo.QuiescentCheckpoint,
		leaseTTL:  topo.LeaseTTL, degradedWAL: topo.DegradedOnWALFailure,
	}
	if err := s.startServer(); err != nil {
		return nil, err
	}
	for i := 0; i < topo.Workstations; i++ {
		wsDir := ""
		if !topo.VolatileWS {
			wsDir = filepath.Join(dir, wsName(i))
		}
		tr := rpc.NewTCP()
		client := rpc.NewClient(tr, wsName(i))
		client.Backoff = time.Millisecond
		tm, _, err := txn.NewClientTM(wsName(i), client, s.addr, wsDir)
		if err != nil {
			s.close()
			return nil, err
		}
		tm.Coordinator().Faults = reg
		// Callback endpoint: the workstation listens on its own transport
		// and registers the kernel-chosen address with the server so
		// invalidations arrive over a real socket.
		cbAddr, err := tr.Listen("127.0.0.1:0", rpc.Dedup(tm.Cache().Handler()))
		if err != nil {
			tm.Close()
			s.close()
			return nil, err
		}
		tm.SetCallbackAddr(cbAddr)
		// The assembled server reaps silent sessions: renew the lease as a
		// workstation of a real concordd must.
		hb := topo.HeartbeatEvery
		if hb <= 0 {
			hb = topo.LeaseTTL / txn.DefaultHeartbeatDivisor // 0 = StartHeartbeat's default
		}
		tm.StartHeartbeat(hb)
		s.trans = append(s.trans, tr)
		s.tms = append(s.tms, tm)
	}
	return s, nil
}

// startServer opens (or recovers) the durable server state and serves it on
// s.addr (chosen by the kernel on first boot, reused on restart).
func (s *tcpSite) startServer() error {
	sdir := filepath.Join(s.dir, "server")
	r, err := repo.Open(s.cat, repo.Options{
		Dir: sdir, Sync: true, SegmentBytes: s.segBytes,
		CheckpointMaxChain: s.maxChain, QuiescentCheckpoint: s.quiescent,
		DegradedOnWALFailure: s.degradedWAL,
		Faults:               s.reg,
	})
	if err != nil {
		return err
	}
	plog, err := wal.Open(filepath.Join(sdir, "participant.wal"), wal.Options{SyncOnAppend: true})
	if err != nil {
		r.Close()
		return err
	}
	// The callback channel shares the server's transport. The client ID is
	// incarnation-unique so workstation-side dedup never mistakes a restarted
	// server's callbacks for replays.
	srv := rpc.NewTCP()
	s.mu.Lock()
	s.epoch++
	cbClient := rpc.NewClient(srv, fmt.Sprintf("server-cb@%d", s.epoch))
	s.mu.Unlock()
	cbClient.Backoff = time.Millisecond
	site, err := server.Assemble(r, plog, cbClient, server.Options{
		Faults: s.reg, LeaseTTL: s.leaseTTL, LockTimeout: 2 * time.Second,
	})
	if err != nil {
		srv.Close()
		plog.Close()
		r.Close()
		return err
	}
	// The DAs here are not CM-managed, so nothing rebuilds scope ownership at
	// restart: reseed it from the recovered derivation graphs — every
	// surviving version belongs to its DA's scope.
	for _, da := range r.GraphNames() {
		g, err := r.Graph(da)
		if err != nil {
			continue
		}
		for _, id := range g.IDs() {
			site.Scopes.Own(da, string(id)) //nolint:errcheck // reseed is idempotent
		}
	}
	s.mu.Lock()
	s.site, s.plog, s.srv = site, plog, srv
	listen := s.addr
	s.mu.Unlock()
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	bound, err := srv.ListenDeadline(listen, site.Handler())
	if err != nil {
		s.stopServer()
		return err
	}
	s.mu.Lock()
	s.addr = bound
	s.mu.Unlock()
	return nil
}

// stopServer tears the server site down (crash or close): the site, its
// listener, then the durable state.
func (s *tcpSite) stopServer() {
	s.mu.Lock()
	site, plog, srv := s.site, s.plog, s.srv
	s.site, s.plog, s.srv = nil, nil, nil
	s.mu.Unlock()
	if site == nil {
		return
	}
	site.Close()
	srv.Close()
	plog.Close()
	site.Repo.Close()
}

func (s *tcpSite) begin(ws int, dopID, da string) (*txn.DOP, error) {
	return s.tms[ws].Begin(dopID, da)
}

func (s *tcpSite) repo() *repo.Repository {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.site == nil {
		return nil
	}
	return s.site.Repo
}

func (s *tcpSite) catalog() *catalog.Catalog { return s.cat }
func (s *tcpSite) serverRepoDir() string     { return filepath.Join(s.dir, "server") }

func (s *tcpSite) newDA(id string) error { return s.repo().CreateGraph(id) }

func (s *tcpSite) delegate(string, string) error { return errUnsupported }

func (s *tcpSite) checkpoint() error {
	s.mu.Lock()
	site := s.site
	s.mu.Unlock()
	if site == nil {
		return errors.New("scenario: server down")
	}
	return site.Checkpoint()
}

func (s *tcpSite) crashRestartServer(tornTail, tornManifest bool) error {
	s.stopServer()
	if tornTail {
		if err := corruptWALTail(filepath.Join(s.serverRepoDir(), "repo.wal")); err != nil {
			return err
		}
	}
	if tornManifest {
		if err := corruptManifestTail(s.serverRepoDir()); err != nil {
			return err
		}
	}
	if err := s.startServer(); err != nil {
		return err
	}
	// Resolve in-doubt checkins against the workstation coordinators
	// (presumed abort for unknown outcomes), as core.RestartServer does.
	s.mu.Lock()
	participant := s.site.Participant
	s.mu.Unlock()
	return participant.Resolve(func(txid string) rpc.Outcome {
		for _, tm := range s.tms {
			if tm.Coordinator().Outcome(txid) == rpc.OutcomeCommitted {
				return rpc.OutcomeCommitted
			}
		}
		return rpc.OutcomeAborted
	})
}

func (s *tcpSite) crashRestartWS(int) error { return errUnsupported }

func (s *tcpSite) serverTM() *txn.ServerTM {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.site == nil {
		return nil
	}
	return s.site.TM
}

func (s *tcpSite) vanishWS(int) error        { return errUnsupported }
func (s *tcpSite) reviveWS(int) (int, error) { return 0, errUnsupported }

// The TCP deployment carries no warm standby: every replication operation is
// unsupported (the matrix keeps replication faults on the in-process shape).
func (s *tcpSite) killPrimary() error                   { return errUnsupported }
func (s *tcpSite) partitionPrimary() error              { return errUnsupported }
func (s *tcpSite) healPrimary() error                   { return errUnsupported }
func (s *tcpSite) crashStandby() error                  { return errUnsupported }
func (s *tcpSite) restartStandby() error                { return errUnsupported }
func (s *tcpSite) replHealth() (core.ReplHealth, error) { return core.ReplHealth{}, errUnsupported }
func (s *tcpSite) standbyRepo() *repo.Repository        { return nil }
func (s *tcpSite) primaryRepo() *repo.Repository        { return s.repo() }
func (s *tcpSite) wsServerAddr(int) (string, error)     { return "", errUnsupported }

func (s *tcpSite) health() (string, string) {
	r := s.repo()
	if r == nil {
		return "down", "server crashed"
	}
	h := r.Health()
	return h.Mode, h.Cause
}

func (s *tcpSite) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, tm := range s.tms {
		tm.Close()
	}
	for _, tr := range s.trans {
		tr.Close()
	}
	s.stopServer()
}
