package rpc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"concord/internal/binenc"
	"concord/internal/fault"
	"concord/internal/wal"
)

// Two-phase commit: CONCORD requires client-TM and server-TM to "accomplish
// a two-phase-commit protocol for all their critical interactions"
// (Sect. 5.2), and suggests the X/OPEN protocol with presumed-abort style
// optimizations for LAN communication (Sect. 6, [SBCM93]).
//
// The engine here is presumed-abort: the coordinator force-logs only commit
// decisions; absence of a decision record means abort. Participants
// force-log their prepare vote and resolve in-doubt transactions by asking
// the coordinator after a crash.

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
	// FaultPrepareVoteLogged fires in the participant after its commit
	// vote is durable, before the vote reaches the coordinator — the
	// reply is lost and the participant stays in doubt.
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

// forget drops an acknowledged decision from memory, then logs its end
// record (forced, though cleanup only): a Checkpoint that re-logged txid
// before the delete did so below the end record.
func (c *Coordinator) forget(txid string) {
	c.mu.Lock()
	delete(c.decisions, txid)
	c.mu.Unlock()
	if c.log != nil {
		c.log.Append(recDecisionEnd, "coordinator", []byte(txid)) //nolint:errcheck // cleanup only
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
// vote log knows the prepared branches but never heard phase 2 from the dead
// primary's window — pushing the durable outcomes re-applies them (Commit is
// idempotent, so branches the old server already applied and replicated are
// harmless re-deliveries). Successful re-deliveries are forgotten exactly as
// in Commit.
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

// Participant adapts a Resource to the 2PC wire protocol with a persistent
// vote log. Register its Handler on the transport address the coordinator
// calls.
type Participant struct {
	res Resource
	log *wal.Log

	// Faults is the fault-point registry traversed at FaultPrepareVoteLogged
	// and FaultCommitApply (nil-safe). Set it before serving; tests only.
	Faults *fault.Registry

	// ckMu orders vote/done log records against checkpoint snapshots: state
	// changes hold it for read across (log append + map update), Checkpoint
	// holds it for write, so a snapshot can never miss a vote whose record
	// lies below the new low-water mark. Lock order: ckMu before mu.
	ckMu     sync.RWMutex
	mu       sync.Mutex
	prepared map[string]bool
	done     map[string]bool
}

// Participant log record types.
const (
	recVotePrepared wal.RecordType = 0x31
	recTxDone       wal.RecordType = 0x32
	// recPartSnap carries the full prepared/done state at its LSN; replay
	// rebuilds from the latest one plus the records after it. Checkpoint
	// writes it immediately before moving the log's low-water mark.
	recPartSnap wal.RecordType = 0x33
)

// NewParticipant wraps res. log (optional) makes prepare votes durable so
// in-doubt transactions survive a participant crash.
func NewParticipant(res Resource, log *wal.Log) (*Participant, error) {
	p := &Participant{res: res, log: log, prepared: make(map[string]bool), done: make(map[string]bool)}
	if log != nil {
		err := log.Replay(func(r wal.Record) error {
			switch r.Type {
			case recPartSnap:
				prepared, done, err := decodePartSnap(r.Payload)
				if err != nil {
					return err
				}
				p.prepared, p.done = prepared, done
			case recVotePrepared:
				p.prepared[string(r.Payload)] = true
			case recTxDone:
				delete(p.prepared, string(r.Payload))
				p.done[string(r.Payload)] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// encodePartSnap serializes the prepared and done transaction-ID sets.
func encodePartSnap(prepared, done map[string]bool) []byte {
	w := binenc.NewWriter(64 + 16*(len(prepared)+len(done)))
	w.Strs(sortedKeys(prepared))
	w.Strs(sortedKeys(done))
	return w.Bytes()
}

func decodePartSnap(data []byte) (prepared, done map[string]bool, err error) {
	r := binenc.NewReader(data)
	prepared, done = make(map[string]bool), make(map[string]bool)
	for _, tx := range r.Strs() {
		prepared[tx] = true
	}
	for _, tx := range r.Strs() {
		done[tx] = true
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("rpc: participant snapshot: %w", err)
	}
	return prepared, done, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Checkpoint compacts the participant log: it writes one snapshot record
// holding the current prepared/done sets and moves the log's low-water mark
// to just below it, so recovery replays the snapshot plus the records after
// it instead of the whole vote history. In-doubt transactions (prepared,
// unresolved) are preserved verbatim.
func (p *Participant) Checkpoint() error {
	if p.log == nil {
		return nil
	}
	p.ckMu.Lock()
	defer p.ckMu.Unlock()
	p.mu.Lock()
	payload := encodePartSnap(p.prepared, p.done)
	p.mu.Unlock()
	// No state change can append between here and the snapshot record (we
	// hold ckMu), so the record's LSN is exactly the current tail and the
	// mark below it covers every earlier vote.
	mark := wal.LSN(p.log.Size())
	if _, err := p.log.Append(recPartSnap, "participant", payload); err != nil {
		return fmt.Errorf("rpc: participant checkpoint: %w", err)
	}
	return p.log.Checkpoint(mark)
}

// InDoubt lists transactions prepared but not yet resolved, sorted order not
// guaranteed.
func (p *Participant) InDoubt() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.prepared))
	for tx := range p.prepared {
		out = append(out, tx)
	}
	return out
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
	p.mu.Lock()
	if p.done[txid] {
		p.mu.Unlock()
		return nil, errors.New("rpc: participant: transaction already resolved")
	}
	if p.prepared[txid] {
		p.mu.Unlock()
		return []byte("commit"), nil // idempotent re-prepare
	}
	p.mu.Unlock()

	vote, err := p.res.Prepare(txid)
	if err != nil || vote != VoteCommit {
		return []byte("abort"), nil
	}
	p.ckMu.RLock()
	defer p.ckMu.RUnlock()
	if p.log != nil {
		if _, err := p.log.Append(recVotePrepared, txid, []byte(txid)); err != nil {
			// Vote not durable: refuse to promise.
			p.res.Abort(txid) //nolint:errcheck // best effort
			return []byte("abort"), nil
		}
	}
	p.mu.Lock()
	p.prepared[txid] = true
	p.mu.Unlock()
	if err := p.Faults.At(FaultPrepareVoteLogged); err != nil {
		// Simulated participant death after the durable vote: the reply
		// never reaches the coordinator, which aborts by presumption; the
		// vote stays in doubt here until Resolve.
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
	p.finish(txid)
	return []byte("ok"), nil
}

func (p *Participant) abort(txid string) ([]byte, error) {
	if err := p.res.Abort(txid); err != nil {
		return nil, err
	}
	p.finish(txid)
	return []byte("ok"), nil
}

func (p *Participant) finish(txid string) {
	p.ckMu.RLock()
	defer p.ckMu.RUnlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil && p.prepared[txid] {
		// The done record is pure cleanup: if it never becomes durable the
		// transaction is merely re-resolved against the coordinator at the
		// next recovery (commit/abort are idempotent). Reserve it and let
		// the next forced write or Close carry it, instead of stalling the
		// commit acknowledgement on an extra fsync.
		p.log.AppendAsync(recTxDone, txid, []byte(txid)) //nolint:errcheck // cleanup only
	}
	delete(p.prepared, txid)
	p.done[txid] = true
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
