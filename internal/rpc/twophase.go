package rpc

import (
	"fmt"
	"sort"
	"sync"

	"concord/internal/fault"
	"concord/internal/wal"
)

// Two-phase commit: CONCORD requires client-TM and server-TM to "accomplish
// a two-phase-commit protocol for all their critical interactions"
// (Sect. 5.2), and suggests the X/OPEN protocol with presumed-abort style
// optimizations for LAN communication (Sect. 6, [SBCM93]).
//
// The engine here is presumed-abort: the coordinator force-logs only commit
// decisions; absence of a decision record means abort. A participant's vote
// is its resource's durable Prepare (it logs nothing of its own), and it
// resolves in-doubt transactions by asking the coordinator after a crash.

// Vote is a participant's answer to prepare.
type Vote uint8

// Votes.
const (
	// VoteCommit signals readiness to commit.
	VoteCommit Vote = iota + 1
	// VoteAbort refuses the transaction.
	VoteAbort
)

// Resource is a local resource manager joining 2PC transactions.
type Resource interface {
	// Prepare must persist everything needed to commit later and return
	// VoteCommit, or release and return VoteAbort.
	Prepare(txid string) (Vote, error)
	// Commit finalizes a prepared transaction. It must be idempotent.
	Commit(txid string) error
	// Abort rolls a transaction back. It must be idempotent and tolerate
	// unknown txids (presumed abort).
	Abort(txid string) error
}

// InDoubtLister is a Resource whose promises outlive the process: each
// VoteCommit of its Prepare is durable, and InDoubt lists the transactions it
// prepared and has not resolved, those recovered from its durable state after
// a restart included. The server-TM is one: its staged record is the vote.
type InDoubtLister interface {
	InDoubt() []string
}

// Outcome is the decided fate of a distributed transaction.
type Outcome uint8

// Outcomes.
const (
	// OutcomeCommitted means all participants prepared and the decision
	// was logged.
	OutcomeCommitted Outcome = iota + 1
	// OutcomeAborted means some participant refused or was unreachable.
	OutcomeAborted
)

// String returns the outcome name.
func (o Outcome) String() string {
	if o == OutcomeCommitted {
		return "committed"
	}
	return "aborted"
}

// Coordinator log record types.
const (
	recDecisionCommit wal.RecordType = 0x21
	recDecisionEnd    wal.RecordType = 0x22
)

// Fault points traversed by the 2PC engine and the notifier (the scenario
// harness arms them to simulate crashes at protocol steps).
const (
	// FaultDecisionLogged fires in the coordinator after the commit
	// decision is durable, before any participant hears it — the classic
	// in-doubt window on the participant side.
	FaultDecisionLogged = "rpc:2pc-decision-logged"
	// FaultPrepareVoteLogged fires in the participant after its resource
	// prepared durably, before the vote reaches the coordinator — the reply
	// is lost and the participant stays in doubt.
	FaultPrepareVoteLogged = "rpc:2pc-prepare-vote-logged"
	// FaultCommitApply fires in the participant when the commit decision
	// arrives, before the resource applies it — committed at the
	// coordinator, unapplied at the participant until Resolve.
	FaultCommitApply = "rpc:2pc-commit-apply"
	// FaultNotifyDrop fires on every callback enqueue; when armed the
	// notification is dropped (best-effort channel, counted in Stats).
	FaultNotifyDrop = "rpc:notify-drop"
)

// FaultPoints lists every fault point owned by this package, for coverage
// reports.
var FaultPoints = []string{
	FaultDecisionLogged,
	FaultPrepareVoteLogged,
	FaultCommitApply,
	FaultNotifyDrop,
}

// Coordinator drives presumed-abort 2PC over a Client. The decision log may
// be nil for volatile (test) coordinators.
type Coordinator struct {
	client *Client
	log    *wal.Log

	// Faults is the fault-point registry traversed at FaultDecisionLogged
	// (nil-safe). Set it before the first Commit; tests only.
	Faults *fault.Registry

	mu sync.Mutex
	// decisions holds the committed transactions not every participant has
	// acknowledged yet; an acknowledged one is forgotten as a replay of its
	// end record forgets it, so Outcome answers the same after a restart.
	decisions map[string]bool
	// Stats counts protocol messages for the E10 experiment.
	stats Stats
}

// Stats counts 2PC protocol messages.
type Stats struct {
	Prepares, Commits, Aborts, Retries int
}

// NewCoordinator returns a coordinator using client for participant calls
// and log (optional) for durable commit decisions.
func NewCoordinator(client *Client, log *wal.Log) (*Coordinator, error) {
	return OpenCoordinator(client, log, nil)
}

// OpenCoordinator is NewCoordinator over a log the coordinator shares with
// its owner: the one replay that rebuilds the pending decisions hands every
// record of another type to other (nil skips them).
func OpenCoordinator(client *Client, log *wal.Log, other func(wal.Record) error) (*Coordinator, error) {
	c := &Coordinator{client: client, log: log, decisions: make(map[string]bool)}
	if log == nil {
		return c, nil
	}
	err := log.Replay(func(r wal.Record) error {
		switch r.Type {
		case recDecisionCommit:
			c.decisions[string(r.Payload)] = true
		case recDecisionEnd:
			delete(c.decisions, string(r.Payload))
		default:
			if other != nil {
				return other(r)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns a copy of the protocol message counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Outcome reports the logged fate of txid, aborted by presumption when txid
// is unknown or every participant has acknowledged its commit (none asks).
func (c *Coordinator) Outcome(txid string) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.decisions[txid] {
		return OutcomeCommitted
	}
	return OutcomeAborted
}

// Methods used on participant endpoints.
const (
	MethodPrepare = "2pc/prepare"
	MethodCommit  = "2pc/commit"
	MethodAbort   = "2pc/abort"
)

// Commit runs the protocol for txid across the participant addresses.
// On any prepare failure the transaction aborts. The returned outcome is
// durable before participants learn it.
func (c *Coordinator) Commit(txid string, participants []string) (Outcome, error) {
	// Phase 1: prepare.
	allPrepared := true
	for _, p := range participants {
		c.mu.Lock()
		c.stats.Prepares++
		c.mu.Unlock()
		resp, err := c.client.Call(p, MethodPrepare, []byte(txid))
		if err != nil || string(resp) != "commit" {
			allPrepared = false
			break
		}
	}
	if !allPrepared {
		// Presumed abort: no forced log write needed.
		c.abortAll(txid, participants)
		return OutcomeAborted, nil
	}
	// Decision: force-log commit.
	if c.log != nil {
		if _, err := c.log.Append(recDecisionCommit, "coordinator", []byte(txid)); err != nil {
			// Cannot make the decision durable: abort is the safe fate.
			c.abortAll(txid, participants)
			return OutcomeAborted, fmt.Errorf("rpc: 2pc decision log: %w", err)
		}
	}
	c.mu.Lock()
	c.decisions[txid] = true
	c.mu.Unlock()
	if err := c.Faults.At(FaultDecisionLogged); err != nil {
		// Simulated coordinator death between the durable decision and
		// phase 2: the transaction IS committed; participants stay in
		// doubt until they Resolve against the decision log.
		return OutcomeCommitted, fmt.Errorf("rpc: 2pc after decision: %w", err)
	}
	// Phase 2: commit.
	var firstErr error
	for _, p := range participants {
		c.mu.Lock()
		c.stats.Commits++
		c.mu.Unlock()
		if _, err := c.client.Call(p, MethodCommit, []byte(txid)); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rpc: 2pc commit at %s: %w", p, err)
		}
	}
	if firstErr == nil {
		c.forget(txid)
	}
	// The transaction is committed even if some participant is temporarily
	// unreachable; it will learn the outcome on recovery (Resolve).
	return OutcomeCommitted, firstErr
}

// forget drops an acknowledged decision from memory, then reserves its end
// record without waiting for it: a Checkpoint that re-logged txid before the
// delete did so below the end record. The record is cleanup only and rides
// the log's next force. Lost in a crash, the decision comes back pending:
// Outcome still answers committed, which is true, and a resend of it is an
// idempotent commit at the participant.
func (c *Coordinator) forget(txid string) {
	c.mu.Lock()
	delete(c.decisions, txid)
	c.mu.Unlock()
	if c.log != nil {
		c.log.AppendAsync(recDecisionEnd, "coordinator", []byte(txid)) //nolint:errcheck // cleanup only
	}
}

// Checkpoint moves the (non-nil) decision log's low-water mark to floor,
// which the log's owner chose below every record it still needs, a decision
// being logged included. Each unacknowledged decision is first logged again
// above floor; the cut forces those records before it moves the mark, or
// fails. No participant is asked, and no outcome is lost.
func (c *Coordinator) Checkpoint(floor wal.LSN) error {
	c.mu.Lock()
	for txid := range c.decisions {
		c.log.AppendAsync(recDecisionCommit, "coordinator", []byte(txid)) //nolint:errcheck // see above
	}
	c.mu.Unlock()
	return c.log.Checkpoint(floor)
}

// ResendDecisions re-delivers every committed, not-yet-acknowledged decision
// to addr: the client-driven half of in-doubt resolution after a failover.
// The participant endpoint moved to the promoted standby, whose replicated
// repository holds the prepared branches as staged records but never heard
// phase 2 from the dead primary's window — pushing the durable outcomes
// re-applies them (Commit is idempotent, so branches the old server already
// applied and replicated are harmless re-deliveries). Successful
// re-deliveries are forgotten exactly as in Commit.
func (c *Coordinator) ResendDecisions(addr string) error {
	c.mu.Lock()
	pending := make([]string, 0, len(c.decisions))
	for txid := range c.decisions {
		pending = append(pending, txid)
	}
	c.mu.Unlock()
	sort.Strings(pending)
	var firstErr error
	for _, txid := range pending {
		c.mu.Lock()
		c.stats.Commits++
		c.stats.Retries++
		c.mu.Unlock()
		if _, err := c.client.Call(addr, MethodCommit, []byte(txid)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rpc: 2pc resend at %s: %w", addr, err)
			}
			continue
		}
		c.forget(txid)
	}
	return firstErr
}

func (c *Coordinator) abortAll(txid string, participants []string) {
	for _, p := range participants {
		c.mu.Lock()
		c.stats.Aborts++
		c.mu.Unlock()
		c.client.Call(p, MethodAbort, []byte(txid)) //nolint:errcheck // best effort; presumed abort
	}
}

// Participant adapts a Resource to the 2PC wire protocol. It logs nothing
// and remembers nothing: the resource's durable Prepare is the vote, and the
// resource lists what is in doubt. Register its Handler on the transport
// address the coordinator calls.
type Participant struct {
	res Resource

	// Faults is the fault-point registry traversed at FaultPrepareVoteLogged
	// and FaultCommitApply (nil-safe). Set it before serving; tests only.
	Faults *fault.Registry
}

// NewParticipant wraps res. The log argument is ignored and never written: a
// participant's promise is its resource's durable Prepare, so one that must
// survive a crash implements InDoubtLister. The parameter stays for callers
// that still open a participant log of their own.
func NewParticipant(res Resource, _ *wal.Log) (*Participant, error) {
	return &Participant{res: res}, nil
}

// InDoubt lists transactions prepared but not yet resolved, in no particular
// order: the resource's list, or none when it keeps no list (InDoubtLister).
func (p *Participant) InDoubt() []string {
	if l, ok := p.res.(InDoubtLister); ok {
		return l.InDoubt()
	}
	return nil
}

// Handler returns the transport handler speaking the 2PC protocol.
func (p *Participant) Handler() Handler {
	return func(method string, payload []byte) ([]byte, error) {
		txid := string(payload)
		switch method {
		case MethodPrepare:
			return p.prepare(txid)
		case MethodCommit:
			return p.commit(txid)
		case MethodAbort:
			return p.abort(txid)
		default:
			return nil, fmt.Errorf("rpc: participant: unknown method %q", method)
		}
	}
}

func (p *Participant) prepare(txid string) ([]byte, error) {
	vote, err := p.res.Prepare(txid)
	if err != nil || vote != VoteCommit {
		return []byte("abort"), nil
	}
	if err := p.Faults.At(FaultPrepareVoteLogged); err != nil {
		// Simulated participant death after the durable prepare: the reply
		// never reaches the coordinator, which aborts by presumption; the
		// branch stays in doubt here until Resolve.
		return nil, err
	}
	return []byte("commit"), nil
}

func (p *Participant) commit(txid string) ([]byte, error) {
	if err := p.Faults.At(FaultCommitApply); err != nil {
		// Simulated participant death on arrival of the commit decision:
		// the resource never applies it; Resolve re-delivers after restart.
		return nil, err
	}
	if err := p.res.Commit(txid); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

func (p *Participant) abort(txid string) ([]byte, error) {
	if err := p.res.Abort(txid); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// Resolve settles every in-doubt transaction after a participant restart by
// asking the coordinator for the durable outcome (presumed abort: unknown
// means aborted).
func (p *Participant) Resolve(outcome func(txid string) Outcome) error {
	var firstErr error
	for _, txid := range p.InDoubt() {
		var err error
		if outcome(txid) == OutcomeCommitted {
			_, err = p.commit(txid)
		} else {
			_, err = p.abort(txid)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
