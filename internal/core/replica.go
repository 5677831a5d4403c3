// Warm-standby server replication (DESIGN.md §5.4): a second server site
// follows the primary through synchronous WAL shipping and takes over on a
// client-driven, epoch-fenced promotion. The standby runs the repository in
// follower mode (live apply of shipped batches); promotion assembles the full
// server role — lock manager, scope table, server-TM recovering in-doubt 2PC
// branches from the replicated staged records, cooperation manager — over
// the replicated state.

package core

import (
	"errors"
	"path/filepath"
	"sync"

	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/server"
	"concord/internal/txn"
)

// StandbyAddr is the transport address of the warm-standby server site. With
// Options.Replicated, workstations know it as their failover target and the
// primary ships WAL batches to it.
const StandbyAddr = "concord-standby"

// standbySite is the warm-standby half of a replicated deployment: the
// server.Standby role plus the durable state core opened for it. A standby
// crash empties the fields; RestartStandby fills them with a fresh
// incarnation and re-serves StandbyAddr.
type standbySite struct {
	mu   sync.Mutex
	sb   *server.Standby
	repo *repo.Repository
	// everPromoted survives a crash of the promoted site: the state under
	// Dir/standby carries a bumped epoch and direct mutations, so it can
	// never rejoin as a follower.
	everPromoted bool
}

// role returns the live standby role (nil while crashed or unreplicated).
func (ss *standbySite) role() *server.Standby {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.sb
}

// promotedSite returns the server site a promotion assembled (nil before
// promotion, while crashed, or when unreplicated).
func (ss *standbySite) promotedSite() *server.Site {
	if sb := ss.role(); sb != nil {
		return sb.Site()
	}
	return nil
}

// healthInfo answers for the standby when no primary serves.
func (ss *standbySite) healthInfo() txn.ServerHealthInfo {
	if sb := ss.role(); sb != nil {
		return sb.HealthInfo()
	}
	return txn.ServerHealthInfo{Mode: "down", Cause: "standby crashed", Role: "standby"}
}

// bootStandby opens (or recovers) the standby's durable state under
// Dir/standby — the follower-mode repository replays its shipped redo log —
// starts its checkpointer and serves a fresh server.Standby over it at
// StandbyAddr.
func (s *System) bootStandby(ss *standbySite) error {
	r, err := repo.Open(s.cat, repo.Options{
		Dir: filepath.Join(s.opts.Dir, "standby"), Sync: true, Follower: true,
		SegmentBytes: s.opts.SegmentBytes,
		Faults:       s.opts.Faults,
	})
	if err != nil {
		return err
	}
	r.StartCheckpointer(s.ckptLogBytes)
	sb := server.NewStandby(r, s.incarnationClient("standby-cb"), s.siteOptions())
	if err := rpc.ServeWithDeadline(s.trans, StandbyAddr, sb.Handler()); err != nil {
		r.Close()
		return err
	}
	ss.mu.Lock()
	ss.sb, ss.repo = sb, r
	ss.mu.Unlock()
	return nil
}

// shutdown tears the standby down (crash or system close): the promoted site
// if there is one, then the durable state. Returns the repository's close
// error, or an error when the standby is already down.
func (ss *standbySite) shutdown() error {
	ss.mu.Lock()
	sb, r := ss.sb, ss.repo
	ss.sb, ss.repo = nil, nil
	if sb != nil && sb.Site() != nil {
		ss.everPromoted = true
	}
	ss.mu.Unlock()
	if sb == nil {
		return errors.New("core: standby already down")
	}
	sb.Close()
	return r.Close()
}

// Promote asks the standby to take over as primary (what a workstation's
// failover does through RPC, exposed for operators and tests). It returns
// the new fencing epoch. Idempotent.
func (s *System) Promote() (uint64, error) {
	s.mu.Lock()
	ss := s.standby
	s.mu.Unlock()
	if ss == nil {
		return 0, errors.New("core: system is not replicated")
	}
	sb := ss.role()
	if sb == nil {
		return 0, errors.New("core: standby is down")
	}
	return sb.Receiver().Promote()
}

// CrashStandby simulates a standby crash: its address partitions and its
// volatile state vanishes; the durable replicated state under Dir/standby
// survives for RestartStandby. A synchronous primary degrades to trailing
// mode and keeps committing (DESIGN.md §5.4). Crashing a promoted standby
// tears down the full server role it was running.
func (s *System) CrashStandby() error {
	s.mu.Lock()
	ss := s.standby
	s.mu.Unlock()
	if ss == nil {
		return errors.New("core: system is not replicated")
	}
	s.trans.Partition(StandbyAddr)
	return ss.shutdown()
}

// RestartStandby recovers the standby from its durable state: the follower
// repository replays the shipped redo log, and a fresh receiver resumes
// ingest. The primary's sender reconnects on its
// own (the standby's authoritative tail steers catch-up), returning a
// synchronous configuration to sync mode once the gap closes. A standby that
// was promoted cannot restart as a follower again.
func (s *System) RestartStandby() error {
	s.mu.Lock()
	ss := s.standby
	s.mu.Unlock()
	if ss == nil {
		return errors.New("core: system is not replicated")
	}
	ss.mu.Lock()
	running, promoted := ss.sb != nil, ss.everPromoted
	ss.mu.Unlock()
	if running {
		return errors.New("core: standby still running")
	}
	if promoted {
		return errors.New("core: standby was promoted; it restarts as a server, not a follower")
	}
	if err := s.bootStandby(ss); err != nil {
		return err
	}
	s.trans.Heal(StandbyAddr)
	return nil
}

// ReplHealth is the replication facet of system health, reported from the
// active server site's perspective (see System.ReplHealth).
type ReplHealth struct {
	// Role is the active site's replication role: "primary" (a standalone
	// server, a replicating primary, or a promoted standby), "standby"
	// (replicated, primary crashed, standby not yet promoted) or "down".
	Role string
	// Epoch is the active site's fencing term.
	Epoch uint64
	// Mode is the primary sender's replication mode ("sync", "trailing",
	// "deposed"; empty when this site ships nothing).
	Mode string
	// SyncConfigured reports whether the sender aims for sync mode.
	SyncConfigured bool
	// LagRecords / LagBytes measure how far the standby trails the primary.
	LagRecords, LagBytes uint64
	// Degrades counts the sender's sync→trailing transitions.
	Degrades uint64
	// StandbyPromoted reports that the standby has taken over as primary.
	StandbyPromoted bool
}

// ReplHealth reports the replication role, fencing epoch and shipping lag of
// the active server site: the promoted standby once a failover happened, the
// primary otherwise. Unreplicated systems report a standalone primary at
// epoch 0.
func (s *System) ReplHealth() ReplHealth {
	s.mu.Lock()
	ss, site := s.standby, s.server
	s.mu.Unlock()
	if psite := ss.promotedSite(); psite != nil {
		return ReplHealth{Role: "primary", Epoch: psite.Repo.Epoch(), StandbyPromoted: true}
	}
	if site == nil {
		if ss != nil {
			h := ss.healthInfo()
			return ReplHealth{Role: h.Role, Epoch: h.Epoch}
		}
		return ReplHealth{Role: "down"}
	}
	out := ReplHealth{Role: "primary", Epoch: site.Repo.Epoch()}
	if st := site.SenderStats(); st.Mode != 0 {
		out.Mode = st.Mode.String()
		out.SyncConfigured = st.SyncConfigured
		out.Degrades = st.Degrades
		out.LagRecords = uint64(max(st.LagRecords, 0))
		out.LagBytes = uint64(max(st.LagBytes, 0))
	}
	return out
}

// StandbyReceiverStats reports the standby's ingest counters (zeros when the
// system is unreplicated or the standby is down).
func (s *System) StandbyReceiverStats() repl.ReceiverStats {
	s.mu.Lock()
	ss := s.standby
	s.mu.Unlock()
	if sb := ss.role(); sb != nil {
		return sb.Receiver().Stats()
	}
	return repl.ReceiverStats{}
}

// StandbyRepo returns the standby repository (nil when unreplicated or
// crashed). Oracles read it to compare replicated state against the primary.
func (s *System) StandbyRepo() *repo.Repository {
	s.mu.Lock()
	ss := s.standby
	s.mu.Unlock()
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.repo
}

// PrimaryRepo returns the original primary's repository — even after a
// promotion has deposed it (nil while the server is crashed). The split-brain
// oracle pokes the deposed repository directly to prove its commits are
// fenced instead of silently acknowledged.
func (s *System) PrimaryRepo() *repo.Repository {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.server == nil {
		return nil
	}
	return s.server.Repo
}
