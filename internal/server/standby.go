package server

import (
	"fmt"
	"sync"
	"time"

	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
	"concord/internal/wal"
)

// Standby is the warm-standby server role (DESIGN.md §5.4): a follower-mode
// repository and a raw copy of the participant log, both fed by a
// repl.Receiver. Before promotion it serves the replication protocol and
// health probes and refuses client traffic; an epoch-fenced promotion
// assembles the full Site over the replicated state — the server-TM recovers
// prepared checkins from the replicated "tm/staged/" metadata and the
// participant replays the replicated vote log, so the coordinators' decision
// resend completes in-doubt 2PC branches.
type Standby struct {
	// OnPromoted, when set, runs at the end of a successful promotion with
	// the site it assembled, for what Assemble leaves to the deployment
	// (core starts the site's checkpointer). Set it before serving Handler.
	OnPromoted func(*Site)

	repo      *repo.Repository
	plog      *wal.Log
	callbacks *rpc.Client
	opts      Options
	recv      *repl.Receiver
	replH     rpc.Handler // recv.Handler(), built once: shipping is a hot path
	handler   rpc.DeadlineHandler

	mu   sync.Mutex
	site *Site // set by promotion
}

// NewStandby builds the standby role over a repository opened in follower
// mode and the participant-log copy. callbacks and opts are what Assemble
// receives at promotion. The caller keeps ownership of r and plog and closes
// them after Standby.Close.
func NewStandby(r *repo.Repository, plog *wal.Log, callbacks *rpc.Client, opts Options) *Standby {
	sb := &Standby{repo: r, plog: plog, callbacks: callbacks, opts: opts}
	sb.recv = repl.NewReceiver(r, plog, repl.ReceiverOptions{
		Faults:    opts.Faults,
		OnPromote: sb.promote,
	})
	sb.replH = sb.recv.Handler()
	sb.handler = rpc.DedupDeadlineFenced(sb.dispatch, rpc.EpochFence(r.Epoch))
	return sb
}

// promote is the receiver's OnPromote hook. The follower repository has
// already been promoted (mutations allowed) and the fencing epoch durably
// bumped; a failure here leaves the promotion retryable.
func (sb *Standby) promote(uint64) error {
	site, err := Assemble(sb.repo, sb.plog, sb.callbacks, sb.opts)
	if err != nil {
		return err
	}
	sb.mu.Lock()
	sb.site = site
	sb.mu.Unlock()
	if sb.OnPromoted != nil {
		sb.OnPromoted(site)
	}
	return nil
}

// dispatch routes requests at the standby's address: the replication protocol
// to the receiver, everything else to the promoted site once it exists.
// Before promotion only health probes are answered; client traffic is refused
// with repo.ErrFollower (the workstation's failover path promotes first).
func (sb *Standby) dispatch(deadline time.Time, method string, payload []byte) ([]byte, error) {
	switch method {
	case repl.MethodHello, repl.MethodShip, repl.MethodPromote:
		return sb.replH(method, payload)
	}
	if site := sb.Site(); site != nil {
		return site.dispatch(deadline, method, payload)
	}
	if method == txn.MethodHealth {
		return txn.EncodeHealthInfo(sb.HealthInfo()), nil
	}
	return nil, fmt.Errorf("%w: standby serves no client traffic before promotion", repo.ErrFollower)
}

// Handler returns the standby's request handler (dedup and epoch fence
// included). It keeps serving across promotion: serve it once at the
// standby's address.
func (sb *Standby) Handler() rpc.DeadlineHandler { return sb.handler }

// Receiver returns the replication receiver: Promote performs the takeover
// that workstations otherwise trigger through repl.MethodPromote, Promoted
// and Stats feed health reporting.
func (sb *Standby) Receiver() *repl.Receiver { return sb.recv }

// Site returns the server site assembled by promotion, nil before it.
func (sb *Standby) Site() *Site {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.site
}

// HealthInfo is the pre-promotion answer to a health probe: the repository's
// degradation mode under role "standby", or "promoting" between the end of
// follower mode and the promoted site coming up.
func (sb *Standby) HealthInfo() txn.ServerHealthInfo {
	h := sb.repo.Health()
	role := "standby"
	if !sb.repo.Follower() {
		role = "promoting"
	}
	return txn.ServerHealthInfo{Mode: h.Mode, Cause: h.Cause, Role: role, Epoch: sb.repo.Epoch()}
}

// Close tears down the promoted site, if any. The repository and participant
// log stay open: they belong to the caller.
func (sb *Standby) Close() {
	if site := sb.Site(); site != nil {
		site.Close()
	}
}
