// Package server assembles the CONCORD server site of Sect. 5.1: the design
// data repository guarded by the server-TM (DOM level), the cooperation
// manager (cooperation level) and the 2PC participant, behind the
// workstation/server protocol. Every deployment — the in-process core.System,
// the scenario and experiment TCP sites, the concordd daemon — builds its
// server through Assemble, so there is one wiring of locks, scopes, lease
// reaper, cache-invalidation notifier and epoch fence (DESIGN.md §5.5), and
// one teardown. The package also holds the two replication roles of DESIGN.md
// §5.4: Site.ReplicateTo (primary side) and Standby (follower side, promoted
// by assembling a Site over the replicated state).
package server

import (
	"sync"
	"time"

	"concord/internal/coop"
	"concord/internal/fault"
	"concord/internal/feature"
	"concord/internal/lock"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
)

// Options carries what deployments set differently; everything else about a
// server site is fixed by Assemble.
type Options struct {
	// Faults is the named fault-point registry threaded through the
	// server-TM, participant, notifier and WAL shipper (nil-safe, inert
	// unless a scenario arms a point).
	Faults *fault.Registry
	// LeaseTTL is the workstation session lease lifetime (0 uses
	// txn.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LockTimeout bounds server-side lock waits (0 keeps the server-TM's
	// default).
	LockTimeout time.Duration
}

// Site is one assembled server site. The component fields are set by Assemble
// and never change afterwards.
type Site struct {
	// Repo is the design data repository the site serves; the caller opened
	// it and closes it after Close.
	Repo *repo.Repository
	// Scopes is the scope table shared by the server-TM and the CM.
	Scopes *lock.ScopeTable
	// Registry is the feature-tool registry the CM evaluates with.
	Registry *feature.Registry
	// TM is the server transaction manager.
	TM *txn.ServerTM
	// CM is the cooperation manager.
	CM *coop.CM
	// Participant is the 2PC participant voting for TM. Its votes are TM's
	// durable staged records, so it has no log of its own, and its in-doubt
	// list is TM's.
	Participant *rpc.Participant
	// Notifier is the server→workstation cache-invalidation channel.
	Notifier *rpc.Notifier

	faults *fault.Registry
	// proto is the workstation/server protocol, verbs the deployment's own;
	// both are served by dispatch from behind the fenced dedup.
	proto   rpc.DeadlineHandler
	verbs   map[string]rpc.Handler
	handler rpc.DeadlineHandler

	mu         sync.Mutex
	sender     *repl.Sender
	senderAddr string
}

// Assemble builds the server site over an opened repository: lock manager,
// scope table, feature registry, server-TM, cooperation manager, 2PC
// participant and the cache-invalidation notifier dialling back through
// callbacks, whose client ID must be unique per server incarnation so
// workstation-side dedup never mistakes a restarted server's callbacks for
// replays. The lease reaper is running on return. The caller keeps ownership
// of r and closes it after Site.Close.
func Assemble(r *repo.Repository, callbacks *rpc.Client, opts Options) (*Site, error) {
	scopes := lock.NewScopeTable()
	reg := feature.NewRegistry()
	stm := txn.NewServerTM(r, lock.NewManager(), scopes)
	stm.Faults = opts.Faults
	stm.LeaseTTL = opts.LeaseTTL
	if opts.LockTimeout > 0 {
		stm.LockTimeout = opts.LockTimeout
	}
	cm, err := coop.NewCM(r, scopes, reg)
	if err != nil {
		return nil, err
	}
	participant, err := rpc.NewParticipant(stm, nil)
	if err != nil {
		cm.Close()
		return nil, err
	}
	participant.Faults = opts.Faults
	notifier := rpc.NewNotifier(callbacks, 0)
	notifier.SetFaults(opts.Faults)
	stm.SetNotifier(notifier)
	r.SetChangeHook(stm.VersionChanged)
	s := &Site{
		Repo: r, Scopes: scopes, Registry: reg, TM: stm, CM: cm,
		Participant: participant, Notifier: notifier,
		faults: opts.Faults,
	}
	stm.SetReplInfo(func() (string, uint64, uint64, uint64) {
		st := s.SenderStats()
		return "primary", r.Epoch(), uint64(max(st.LagRecords, 0)), uint64(max(st.LagBytes, 0))
	})
	// The deadline-aware path threads each call's propagated budget down to
	// the server-TM, where it bounds lock waits. The epoch fence refuses
	// callers that witnessed a failover this server missed: a deposed primary
	// cannot serve a workstation that already moved on (DESIGN.md §5.4).
	s.proto = stm.DeadlineHandler(participant)
	s.handler = rpc.DedupDeadlineFenced(s.dispatch, rpc.EpochFence(r.Epoch))
	stm.StartLeaseReaper()
	return s, nil
}

// dispatch is what the fenced dedup wraps (a promoted Standby routes to it
// from behind its own): a deployment verb, else the workstation/server
// protocol.
func (s *Site) dispatch(deadline time.Time, method string, payload []byte) ([]byte, error) {
	if h, ok := s.verbs[method]; ok {
		return h(method, payload)
	}
	return s.proto(deadline, method, payload)
}

// Handler returns the site's request handler: the workstation/server protocol
// behind exactly-once dedup and the epoch fence. Serve it at the site's
// address.
func (s *Site) Handler() rpc.DeadlineHandler { return s.handler }

// Handle serves one more verb at the site's address, inside the same dedup
// and fence as the protocol (concordd's standby announcement). Register verbs
// before serving Handler.
func (s *Site) Handle(method string, h rpc.Handler) {
	if s.verbs == nil {
		s.verbs = make(map[string]rpc.Handler)
	}
	s.verbs[method] = h
}

// ReplicateTo starts shipping the repository log to the standby whose
// repl.Receiver is served at addr, through client (DESIGN.md §5.4). The
// sender stamps batches with the repository's epoch and traverses the site's
// fault registry. Re-announcing the current address is a no-op (the sender
// reconnects on its own); a different address replaces the sender. It reports
// whether a new sender was started.
func (s *Site) ReplicateTo(client *rpc.Client, addr string, opts repl.SenderOptions) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sender != nil && s.senderAddr == addr {
		return false
	}
	s.detachSenderLocked()
	opts.Epoch = s.Repo.Epoch
	opts.Faults = s.faults
	sender := repl.NewSender(client, addr, s.Repo.Log(), opts)
	s.Repo.Log().SetShipper(sender)
	s.sender, s.senderAddr = sender, addr
	return true
}

func (s *Site) detachSenderLocked() {
	if s.sender == nil {
		return
	}
	s.Repo.Log().SetShipper(nil)
	s.sender.Close()
	s.sender = nil
}

// SenderStats reports the WAL shipper towards the standby (the zero value,
// Mode 0, when the site replicates to nobody).
func (s *Site) SenderStats() repl.SenderStats {
	s.mu.Lock()
	sender := s.sender
	s.mu.Unlock()
	if sender == nil {
		return repl.SenderStats{}
	}
	return sender.Stats()
}

// Close tears the site down in dependency order — lease reaper, notifier, CM
// dispatcher, WAL shipper — and returns once every goroutine the site started
// has exited. The repository stays open, its checkpointer included: it
// belongs to the caller.
func (s *Site) Close() {
	s.TM.StopLeaseReaper()
	s.Notifier.Close()
	s.CM.Close()
	s.mu.Lock()
	s.detachSenderLocked()
	s.mu.Unlock()
}
