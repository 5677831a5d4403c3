// Package core wires the complete CONCORD system: the server site
// (design-data repository, server-TM, cooperation manager) and workstation
// sites (client-TM, design managers), connected by transactional RPC
// (Sect. 5.1 system architecture). It also implements the joint failure
// model of Fig. 8: workstation and server crashes can be injected, and each
// manager recovers its level from its own persistent state — the TM from
// recovery points, the DM from persistent scripts and journals, the CM from
// the persisted DA hierarchy and cooperation protocol.
package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/fault"
	"concord/internal/lock"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/script"
	"concord/internal/server"
	"concord/internal/txn"
)

// ServerAddr is the transport address of the server site.
const ServerAddr = "concord-server"

// callbackAddr names the transport address on which a workstation serves
// cache-invalidation callbacks.
func callbackAddr(ws string) string { return "cb/" + ws }

// Options configures a System.
type Options struct {
	// Dir is the root data directory; server state goes to Dir/server and
	// each workstation to Dir/<workstation>. Empty runs fully volatile
	// (no crash recovery).
	Dir string
	// RegisterTypes populates the catalog (DOTs) before the repository
	// opens. Required.
	RegisterTypes func(*catalog.Catalog) error
	// VolatileWorkstations keeps workstation sites in memory even when Dir
	// is set: only the server persists. Workstation crash recovery is then
	// unavailable, but server durability (the paper's correctness anchor)
	// is unchanged. Load scenarios use it to measure the shared server
	// core rather than each client's private disk.
	VolatileWorkstations bool
	// SegmentBytes is the WAL segment rotation threshold for the server
	// log (0 uses wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointMaxChain is repo.Options.CheckpointMaxChain: a chain length
	// that forces a full rebase on top of the repository's byte rule (0 sets
	// no count bound).
	CheckpointMaxChain int
	// Faults is the named fault-point registry threaded through every
	// component (repository, WAL, 2PC participant and coordinators,
	// server-TM, notifier). Nil-safe and inert unless a scenario arms a
	// point; see internal/fault.
	Faults *fault.Registry
	// LeaseTTL is the workstation session lease lifetime (DESIGN.md §5.3):
	// a workstation silent for this long is presumed failed and its volatile
	// footprint (unprepared staged branches, derivation locks, cache
	// callbacks) is reclaimed by the server-side reaper. 0 uses
	// txn.DefaultLeaseTTL.
	LeaseTTL time.Duration
	// HeartbeatEvery is the workstation lease-renewal period. 0 uses
	// LeaseTTL / txn.DefaultHeartbeatDivisor.
	HeartbeatEvery time.Duration
	// DegradedOnWALFailure turns a server WAL append/fsync failure into
	// read-only degraded mode instead of fail-stop: checkouts keep serving
	// from the MVCC read index, mutations fail fast with repo.ErrDegraded,
	// and the tm/health RPC reports "degraded" (DESIGN.md §5.3).
	DegradedOnWALFailure bool
	// Replicated boots a warm-standby server site at StandbyAddr alongside
	// the primary (DESIGN.md §5.4): the primary ships every WAL batch to it,
	// and workstations promote it (epoch-fenced) when the primary falls
	// silent. Requires Dir — replication exists to protect durable state.
	Replicated bool
	// SyncReplication makes commits wait for the standby's acknowledgement
	// before releasing group-commit waiters: a promoted standby then holds
	// every acknowledged write. With an unreachable standby the primary
	// degrades to trailing (asynchronous) shipping and keeps committing;
	// trailing shipping has no lag bound.
	SyncReplication bool
}

// System is a complete single-process CONCORD deployment: one server site
// and any number of workstation sites over an in-process LAN.
type System struct {
	opts  Options
	cat   *catalog.Catalog
	trans *rpc.InProc
	// ckptLogBytes is the background checkpointer's trigger: the repository
	// log growth past its low-water mark at which a checkpoint runs.
	ckptLogBytes int64

	mu     sync.Mutex
	server *server.Site
	// standby is the warm-standby site (nil unless Options.Replicated). It
	// outlives primary crashes: CrashServer leaves it running so a failover
	// target exists exactly when it is needed.
	standby *standbySite
	ws      map[string]*Workstation
	// epochs counts workstation incarnations so that a restarted
	// workstation's RPC request IDs never collide with those of its
	// previous life (the server deduplicates by request ID).
	epochs map[string]int
	// serverEpochs counts server incarnations for the same reason on the
	// callback channel (workstation caches deduplicate by request ID too).
	serverEpochs int
	// subscribed is the CM the attached design managers receive events
	// from; activeSite moves them to the CM of a restarted or promoted site.
	subscribed *coop.CM
}

// shutdownSite tears the site down, then closes the repository under it,
// returning the close error (the one that can report lost durability).
func shutdownSite(site *server.Site) error {
	site.Close()
	return site.Repo.Close()
}

// NewSystem boots a system: catalog registration, server recovery (if Dir
// holds prior state) and transport setup. The in-process LAN is fault-free
// and every durable server site, a standby included, checkpoints every
// repo.DefaultCheckpointLogBytes of log growth.
func NewSystem(opts Options) (*System, error) {
	return bootSystem(opts, rpc.FaultPlan{}, repo.DefaultCheckpointLogBytes)
}

// bootSystem is NewSystem with the transport's fault plan and the
// checkpointer's log-growth trigger chosen by the caller.
func bootSystem(opts Options, plan rpc.FaultPlan, ckptLogBytes int64) (*System, error) {
	if opts.RegisterTypes == nil {
		return nil, errors.New("core: Options.RegisterTypes is required")
	}
	if opts.Replicated && opts.Dir == "" {
		return nil, errors.New("core: Options.Replicated requires Options.Dir (replication protects durable state)")
	}
	cat := catalog.New()
	if err := opts.RegisterTypes(cat); err != nil {
		return nil, err
	}
	s := &System{
		opts:         opts,
		cat:          cat,
		trans:        rpc.NewInProc(plan),
		ckptLogBytes: ckptLogBytes,
		ws:           make(map[string]*Workstation),
		epochs:       make(map[string]int),
	}
	// The standby boots first so the primary's sender finds its receiver on
	// the very first handshake instead of burning a retry.
	if opts.Replicated {
		s.standby = &standbySite{}
		if err := s.bootStandby(s.standby); err != nil {
			return nil, err
		}
	}
	if err := s.startServer(); err != nil {
		if s.standby != nil {
			s.standby.shutdown() //nolint:errcheck // reporting the boot error
		}
		return nil, err
	}
	return s, nil
}

func (s *System) serverDir() string {
	if s.opts.Dir == "" {
		return ""
	}
	return filepath.Join(s.opts.Dir, "server")
}

// siteOptions is what every server site of this system is assembled with.
func (s *System) siteOptions() server.Options {
	return server.Options{Faults: s.opts.Faults, LeaseTTL: s.opts.LeaseTTL}
}

// incarnationClient returns an rpc client whose ID is unique per server
// incarnation, so the peers' request dedup never mistakes a restarted
// server's calls for replays. Server-originated traffic does not back off.
func (s *System) incarnationClient(role string) *rpc.Client {
	s.mu.Lock()
	s.serverEpochs++
	c := rpc.NewClient(s.trans, fmt.Sprintf("%s@%d", role, s.serverEpochs))
	s.mu.Unlock()
	c.Backoff = 0
	return c
}

// startServer opens (or recovers) the server's durable state, starts its
// checkpointer, assembles the site over it and serves its handler.
func (s *System) startServer() error {
	dir := s.serverDir()
	r, err := repo.Open(s.cat, repo.Options{
		Dir: dir, Sync: dir != "",
		SegmentBytes:         s.opts.SegmentBytes,
		CheckpointMaxChain:   s.opts.CheckpointMaxChain,
		DegradedOnWALFailure: s.opts.DegradedOnWALFailure,
		Faults:               s.opts.Faults,
	})
	if err != nil {
		return err
	}
	r.StartCheckpointer(s.ckptLogBytes)
	site, err := server.Assemble(r, s.incarnationClient("server-cb"), s.siteOptions())
	if err != nil {
		r.Close()
		return err
	}
	if s.opts.Replicated {
		// The sender's envelopes stay unstamped: epoch agreement travels
		// inside the repl protocol, where the receiver can adopt newer terms.
		site.ReplicateTo(s.incarnationClient("repl"), StandbyAddr, repl.SenderOptions{Sync: s.opts.SyncReplication})
	}
	if err := rpc.ServeWithDeadline(s.trans, ServerAddr, site.Handler()); err != nil {
		shutdownSite(site) //nolint:errcheck // reporting the serve error
		return err
	}
	s.mu.Lock()
	s.server = site
	s.mu.Unlock()
	return nil
}

// Checkpoint snapshots the repository and compacts the server log now,
// regardless of the background threshold. It returns an error when the
// server is down.
func (s *System) Checkpoint() error {
	site := s.activeSite()
	if site == nil {
		return errServerDown
	}
	return site.Repo.Checkpoint()
}

// Catalog returns the shared DOT catalog.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// activeSite resolves the server site currently in charge: the promoted
// standby once a failover happened (it holds the highest fencing epoch),
// otherwise the primary. Nil when no site serves. CM, Repo and the design
// managers' store all resolve through here, so this is where the design
// managers follow a restart or a promotion to the new site's CM before an
// operation on it can emit an event.
func (s *System) activeSite() *server.Site {
	s.mu.Lock()
	sb, site := s.standby, s.server
	s.mu.Unlock()
	if psite := sb.promotedSite(); psite != nil {
		site = psite
	}
	if site != nil {
		s.subscribeDMs(site.CM)
	}
	return site
}

// subscribeDMs registers every attached design manager's event sink with cm,
// once per CM: a restarted or promoted site's CM starts with none.
func (s *System) subscribeDMs(cm *coop.CM) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.subscribed == cm {
		return
	}
	s.subscribed = cm
	for _, w := range s.ws {
		w.mu.Lock()
		for da, dm := range w.dms {
			cm.Subscribe(da, dm.PostEvent)
		}
		w.mu.Unlock()
	}
}

// errServerDown answers a request while no server site serves.
var errServerDown = errors.New("core: server is down")

// activeMeta is the design managers' script.MetaStore: the active server
// repository, resolved on every call, so a DM keeps its script and journal
// across a server restart or a failover.
type activeMeta struct{ s *System }

func (m activeMeta) repo() (*repo.Repository, error) {
	if r := m.s.Repo(); r != nil {
		return r, nil
	}
	return nil, errServerDown
}

func (m activeMeta) PutMeta(key string, value []byte) error {
	r, err := m.repo()
	if err != nil {
		return err
	}
	return r.PutMeta(key, value)
}

func (m activeMeta) GetMeta(key string) ([]byte, error) {
	r, err := m.repo()
	if err != nil {
		return nil, err
	}
	return r.GetMeta(key)
}

func (m activeMeta) ListMeta(prefix string) []string {
	if r := m.s.Repo(); r != nil {
		return r.ListMeta(prefix)
	}
	return nil
}

func (m activeMeta) DeleteMeta(key string) error {
	r, err := m.repo()
	if err != nil {
		return err
	}
	return r.DeleteMeta(key)
}

// CM returns the cooperation manager (centralized at the server site); nil
// while no site serves.
func (s *System) CM() *coop.CM {
	if site := s.activeSite(); site != nil {
		return site.CM
	}
	return nil
}

// Repo returns the active server repository (the promoted standby's after a
// failover); nil while no site serves.
func (s *System) Repo() *repo.Repository {
	if site := s.activeSite(); site != nil {
		return site.Repo
	}
	return nil
}

// Scopes returns the active server scope table; nil while no site serves.
func (s *System) Scopes() *lock.ScopeTable {
	if site := s.activeSite(); site != nil {
		return site.Scopes
	}
	return nil
}

// ServerTM returns the active server transaction manager; nil while no site
// serves.
func (s *System) ServerTM() *txn.ServerTM {
	if site := s.activeSite(); site != nil {
		return site.TM
	}
	return nil
}

// Health reports the active server repository's degradation mode ("ok",
// "degraded" or "failstop") and latched cause; "down" when no site serves.
// ReplHealth carries the replication facet (role, epoch, lag).
func (s *System) Health() (mode, cause string) {
	site := s.activeSite()
	if site == nil {
		return "down", "server crashed"
	}
	h := site.Repo.Health()
	return h.Mode, h.Cause
}

// Transport exposes the in-process LAN (fault injection, partitions).
func (s *System) Transport() *rpc.InProc { return s.trans }

// Close shuts the system down cleanly.
func (s *System) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.ws {
		w.tm.Close()
	}
	var err error
	if s.server != nil {
		err = shutdownSite(s.server)
	}
	if s.standby != nil {
		s.standby.shutdown() //nolint:errcheck // closing; already down is fine
	}
	s.trans.Close()
	return err
}

// Workstation is one designer's machine: a client-TM for DOP processing and
// design managers (one per DA worked on here).
type Workstation struct {
	id        string
	sys       *System
	tm        *txn.ClientTM
	recovered []*txn.DOP

	mu  sync.Mutex
	dms map[string]*script.DesignManager
}

// AddWorkstation boots a workstation site. If the directory holds state from
// a crashed incarnation, DOP contexts are recovered at their most recent
// recovery points (retrievable via RecoveredDOPs).
func (s *System) AddWorkstation(id string) (*Workstation, error) {
	s.mu.Lock()
	if _, dup := s.ws[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: workstation %s already attached", id)
	}
	s.epochs[id]++
	epoch := s.epochs[id]
	s.mu.Unlock()
	client := rpc.NewClient(s.trans, fmt.Sprintf("%s@%d", id, epoch))
	client.Backoff = 0
	var dir string
	if s.opts.Dir != "" && !s.opts.VolatileWorkstations {
		dir = filepath.Join(s.opts.Dir, id)
	}
	tm, recovered, err := txn.NewClientTM(id, client, ServerAddr, dir)
	if err != nil {
		return nil, err
	}
	tm.Coordinator().Faults = s.opts.Faults
	if s.opts.Replicated {
		// The workstation knows its failover target: when the primary falls
		// silent (or answers ErrStaleEpoch), the heartbeat loop promotes the
		// standby and moves the session over.
		tm.SetStandbyAddr(StandbyAddr)
	}
	// Serve the cache-invalidation callback endpoint for this workstation
	// and heal it in case a previous incarnation's crash partitioned it.
	// The cache epoch (bumped by NewClientTM) retires stale registrations.
	cbAddr := callbackAddr(id)
	if err := s.trans.Serve(cbAddr, rpc.Dedup(tm.Cache().Handler())); err != nil {
		tm.Close()
		return nil, err
	}
	s.trans.Heal(cbAddr)
	tm.SetCallbackAddr(cbAddr)
	hb := s.opts.HeartbeatEvery
	if hb <= 0 {
		hb = s.opts.LeaseTTL / txn.DefaultHeartbeatDivisor // 0 = StartHeartbeat's default
	}
	tm.StartHeartbeat(hb)
	w := &Workstation{id: id, sys: s, tm: tm, recovered: recovered, dms: make(map[string]*script.DesignManager)}
	for _, d := range recovered {
		if err := tm.Reattach(d); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.ws[id] = w
	s.mu.Unlock()
	return w, nil
}

// ID returns the workstation identifier.
func (w *Workstation) ID() string { return w.id }

// TM returns the workstation's client-TM.
func (w *Workstation) TM() *txn.ClientTM { return w.tm }

// RecoveredDOPs returns DOP contexts recovered at boot (empty on a fresh
// workstation).
func (w *Workstation) RecoveredDOPs() []*txn.DOP { return w.recovered }

// Begin starts a DOP for a DA on this workstation.
func (w *Workstation) Begin(dopID, da string) (*txn.DOP, error) {
	return w.tm.Begin(dopID, da)
}

// NewDesignManager builds (or recovers) the design manager of a DA on this
// workstation and subscribes it to the DA's cooperation events, at whichever
// server site is active now and after every restart or failover. The
// persistent script and journal live in the active server repository,
// mirroring the paper's placement of all level-specific context data there.
func (w *Workstation) NewDesignManager(cfg script.Config) (*script.DesignManager, error) {
	cfg.Store = activeMeta{w.sys}
	dm, err := script.NewDesignManager(cfg)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.dms[cfg.DA] = dm
	w.mu.Unlock()
	if cm := w.sys.CM(); cm != nil {
		cm.Subscribe(cfg.DA, dm.PostEvent)
	}
	return dm, nil
}

// DesignManager returns the DM of a DA, if present on this workstation.
func (w *Workstation) DesignManager(da string) (*script.DesignManager, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	dm, ok := w.dms[da]
	return dm, ok
}

// CrashWorkstation simulates a workstation crash (Fig. 8): all volatile
// state of the client-TM and the DMs is lost; the persistent DOP contexts,
// scripts and journals survive for the next incarnation (AddWorkstation with
// the same id).
func (s *System) CrashWorkstation(id string) error {
	s.mu.Lock()
	w, ok := s.ws[id]
	if ok {
		delete(s.ws, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown workstation %s", id)
	}
	if cm := s.CM(); cm != nil {
		for da := range w.dms {
			cm.Subscribe(da, nil)
		}
	}
	// The callback endpoint dies with the workstation; invalidations pushed
	// at it are dropped by the transport until the next incarnation heals
	// the address (and re-registers under a fresh cache epoch).
	s.trans.Partition(callbackAddr(id))
	w.tm.Crash()
	return nil
}

// CrashServer simulates a server crash: the repository closes, the transport
// partitions the server address, and all volatile server state (lock tables,
// scope table, staged checkins in memory) vanishes. In a replicated system
// the standby keeps running — it exists for exactly this moment.
func (s *System) CrashServer() error {
	s.mu.Lock()
	site := s.server
	s.server = nil
	s.mu.Unlock()
	if site == nil {
		return errors.New("core: server already down")
	}
	s.trans.Partition(ServerAddr)
	return shutdownSite(site)
}

// RestartServer recovers the server site from its durable state: the
// repository replays its redo log, the CM rebuilds the DA hierarchy and
// scope table, the server-TM reloads prepared checkins, and in-doubt
// checkin transactions are resolved against the workstation coordinators
// (presumed abort for unknown outcomes).
func (s *System) RestartServer() error {
	s.mu.Lock()
	if s.server != nil {
		s.mu.Unlock()
		return errors.New("core: server still running")
	}
	s.mu.Unlock()
	if err := s.startServer(); err != nil {
		return err
	}
	s.trans.Heal(ServerAddr)
	// Resolve in-doubt checkins against all known coordinators.
	s.mu.Lock()
	site := s.server
	tms := make([]*txn.ClientTM, 0, len(s.ws))
	for _, w := range s.ws {
		tms = append(tms, w.tm)
	}
	s.mu.Unlock()
	return site.Participant.Resolve(txn.InDoubtOutcome(tms))
}
