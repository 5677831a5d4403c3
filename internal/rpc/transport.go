// Package rpc provides the communication substrate of CONCORD's
// workstation/server architecture (Sect. 5.1): message transports, a
// reliable ("transactional RPC") client achieving exactly-once effects over
// unreliable delivery, and a presumed-abort two-phase commit engine with a
// persistent coordinator log, whose participants vote through their
// resources' durable prepare (Sects. 5.2, 5.5, 6 and [GR93, SBCM93]).
//
// Two transports are provided: an in-process transport with deterministic
// fault injection (drop, duplicate, delay) for simulation and tests, and a
// TCP transport for real LAN deployment via cmd/concordd, which multiplexes
// length-prefixed binenc frames over a small pool of persistent connections
// (see TCP).
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Handler serves a single method invocation.
//
// Ownership: the payload slice is only valid for the duration of the call —
// reliable clients frame requests in pooled envelope buffers that are
// recycled once the call returns. A handler that retains payload bytes
// beyond its return (e.g. staging them for a later commit) must copy them.
// Response slices, by contrast, are retained by the deduplication layer and
// must not be recycled by the handler.
type Handler func(method string, payload []byte) ([]byte, error)

// DeadlineHandler is a Handler that also receives the per-call deadline
// propagated from the caller (zero when the caller set no budget). Handlers
// use it to bound server-side work — e.g. lock waits — to time the caller is
// still willing to spend, instead of discovering the abandonment only when
// the response hits a dead wire. The payload/response ownership rules of
// Handler apply unchanged.
type DeadlineHandler func(deadline time.Time, method string, payload []byte) ([]byte, error)

// Transport delivers single request/response attempts, each bounded by a
// per-call time budget that travels to the serving DeadlineHandler as its
// deadline. Delivery may fail; the Client layers retries and deduplication
// on top.
type Transport interface {
	// CallBudget performs one unreliable request attempt against addr,
	// bounded by budget. A budget of 0 means "no per-call bound" (the
	// transport's defaults apply and the handler sees a zero deadline).
	CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error)
	// ServeDeadline registers the handler for addr.
	ServeDeadline(addr string, h DeadlineHandler) error
	// Close releases transport resources.
	Close() error
}

// ServeWithDeadline registers h at addr on t.
func ServeWithDeadline(t Transport, addr string, h DeadlineHandler) error {
	return t.ServeDeadline(addr, h)
}

// Transport-level errors.
var (
	ErrUnreachable = errors.New("rpc: address unreachable")
	ErrDropped     = errors.New("rpc: message dropped")
	// ErrRemote wraps an application-level error returned by a handler.
	ErrRemote = errors.New("rpc: remote error")
)

// FaultPlan configures deterministic fault injection on the in-process
// transport. Probabilities are in [0, 1].
type FaultPlan struct {
	// DropRequest is the probability a request vanishes before delivery.
	DropRequest float64
	// DropResponse is the probability the response vanishes after the
	// handler has executed (the dangerous case for exactly-once).
	DropResponse float64
	// Duplicate is the probability a delivered request is executed twice.
	Duplicate float64
	// Seed makes the fault sequence reproducible.
	Seed int64
}

// InProc is an in-process transport with fault injection. The zero value is
// not usable; create one with NewInProc.
type InProc struct {
	mu       sync.RWMutex
	handlers map[string]DeadlineHandler
	plan     FaultPlan
	rng      *rand.Rand
	rngMu    sync.Mutex
	closed   bool
	// Partitioned addresses are unreachable until healed.
	partitioned map[string]bool
}

// NewInProc returns an in-process transport with the given fault plan.
func NewInProc(plan FaultPlan) *InProc {
	return &InProc{
		handlers:    make(map[string]DeadlineHandler),
		plan:        plan,
		rng:         rand.New(rand.NewSource(plan.Seed)),
		partitioned: make(map[string]bool),
	}
}

// Serve registers a handler for addr (called with zero deadlines; use
// ServeDeadline for deadline propagation).
func (t *InProc) Serve(addr string, h Handler) error {
	return t.ServeDeadline(addr, func(_ time.Time, method string, payload []byte) ([]byte, error) {
		return h(method, payload)
	})
}

// ServeDeadline registers a deadline-aware handler for addr, replacing any
// previous one: calls made with CallBudget deliver their deadline to h.
func (t *InProc) ServeDeadline(addr string, h DeadlineHandler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("rpc: transport closed")
	}
	t.handlers[addr] = h
	return nil
}

// Partition makes addr unreachable (simulated crash or network partition):
// new calls fail, and calls already inside addr's handler lose their reply.
func (t *InProc) Partition(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned[addr] = true
}

// Heal reconnects addr.
func (t *InProc) Heal(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.partitioned, addr)
}

func (t *InProc) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return t.rng.Float64() < p
}

// Call delivers one request attempt, subject to the fault plan.
func (t *InProc) Call(addr, method string, payload []byte) ([]byte, error) {
	return t.CallBudget(addr, method, payload, 0)
}

// CallBudget delivers one request attempt with a per-call time budget: the
// handler receives the matching deadline (zero when budget is 0). The
// in-process exchange itself is synchronous, so the budget bounds handler
// work via the propagated deadline rather than by killing the call.
func (t *InProc) CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error) {
	t.mu.RLock()
	h, ok := t.handlers[addr]
	part := t.partitioned[addr]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, errors.New("rpc: transport closed")
	}
	if !ok || part {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if t.chance(t.plan.DropRequest) {
		return nil, fmt.Errorf("%w: request to %s/%s", ErrDropped, addr, method)
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	if t.chance(t.plan.Duplicate) {
		// Execute twice; the first response is discarded. Exactly-once
		// handlers must tolerate this.
		h(deadline, method, payload) //nolint:errcheck // duplicated delivery
	}
	resp, err := h(deadline, method, payload)
	t.mu.RLock()
	part = t.partitioned[addr]
	t.mu.RUnlock()
	if part {
		// The address crashed or was cut off while the handler ran: like a
		// TCP connection dying mid-call, the reply never reaches the caller.
		// Delivering it would acknowledge work a dead server finished after
		// its replication stream was torn down.
		return nil, fmt.Errorf("%w: response from partitioned %s/%s", ErrDropped, addr, method)
	}
	if err != nil {
		// Both sentinels stay unwrappable: callers branch on ErrRemote to
		// stop retrying, and on the application error underneath (e.g.
		// txn.ErrCheckinFailed, lock.ErrDeadlock) to decide how to react.
		return nil, fmt.Errorf("%w: %w", ErrRemote, err)
	}
	if t.chance(t.plan.DropResponse) {
		return nil, fmt.Errorf("%w: response from %s/%s", ErrDropped, addr, method)
	}
	return resp, nil
}

// Close shuts the transport down.
func (t *InProc) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.handlers = make(map[string]DeadlineHandler)
	return nil
}

// Client is a reliable caller: it retries failed attempts with the same
// request ID so that a deduplicating server executes the request exactly
// once even when responses are lost ("transactional RPC", Sect. 5.3).
//
// A request ID is the client's id plus a per-client sequence number. Every
// envelope also carries the client's completion watermark: the lowest
// sequence number whose call is still in progress. Everything below it has
// returned to its caller, so a server may forget those replies — the
// Deduper's memo holds only what the client has not yet seen (DESIGN.md
// §5.2).
type Client struct {
	t Transport
	// Retries bounds the attempts per call (default 8).
	Retries int
	// Backoff is the pause before the first retry (default 1ms; 0 disables
	// sleeping entirely, which in-proc tests rely on). Subsequent retries
	// double the pause up to maxBackoff, with ±25% jitter so a fleet of
	// workstations retrying against a restarting server does not stampede
	// in lockstep.
	Backoff time.Duration
	// Epoch, when set, stamps every request envelope with the caller's
	// current replication epoch (DESIGN.md §5.4): epoch-fenced servers
	// compare it against their own term and refuse interactions that would
	// cross a failover boundary with ErrStaleEpoch. Nil (or a returned 0)
	// leaves requests unstamped, which fenced servers always serve.
	Epoch func() uint64

	mu       sync.Mutex
	seq      uint64
	id       string
	attempts uint64
	// open holds the sequence numbers of the calls in progress and low the
	// completion watermark: the smallest of them, or seq+1 when none is.
	open map[uint64]struct{}
	low  uint64
}

// Attempts reports the total transport attempts made (including retries);
// the difference to the logical call count is the loss-recovery overhead.
func (c *Client) Attempts() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// NewClient wraps a transport in a reliable caller. id must be unique among
// clients sharing a server, and per incarnation: request IDs are id plus a
// sequence number that starts over with every Client, and a server refuses
// a sequence number below the watermark it has seen for id.
func NewClient(t Transport, id string) *Client {
	return &Client{t: t, Retries: 8, Backoff: time.Millisecond, id: id, open: make(map[uint64]struct{})}
}

// begin opens a call: it allocates the call's sequence number and returns it
// with the completion watermark the call's envelope carries.
func (c *Client) begin() (seq, watermark uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if len(c.open) == 0 {
		c.low = c.seq
	}
	c.open[c.seq] = struct{}{}
	return c.seq, c.low
}

// finish closes the call with sequence number seq, whatever its outcome: the
// caller will not read its reply again, so the watermark may pass it.
func (c *Client) finish(seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.open, seq)
	for c.low <= c.seq {
		if _, busy := c.open[c.low]; busy {
			break
		}
		c.low++
	}
}

// envelopePool recycles request framing buffers: every reliable call frames
// its payload into an envelope, and under multi-workstation load that was
// one allocation (plus a payload-sized copy into fresh memory) per RPC.
// Safe because transports hand the envelope to the peer synchronously and
// handlers must not retain payloads (see Handler).
var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// envelope is a pooled framing buffer.
type envelope struct{ buf []byte }

// maxBackoff caps the exponential growth of a Client's retry pause.
const maxBackoff = 100 * time.Millisecond

// maxPooledEnvelopeBytes caps what a released envelope may park in the pool
// (bulk payload transfers should not pin worst-case memory).
const maxPooledEnvelopeBytes = 256 << 10

// Call invokes method at addr reliably. Application-level errors (ErrRemote)
// are returned immediately; transport losses are retried.
func (c *Client) Call(addr, method string, payload []byte) ([]byte, error) {
	return c.CallBudget(addr, method, payload, 0)
}

// ErrBudgetExceeded reports a reliable call abandoned because its time
// budget ran out across attempts (the per-attempt failure is wrapped).
var ErrBudgetExceeded = errors.New("rpc: call budget exceeded")

// CallBudget is Call with an end-to-end time budget covering every attempt
// and backoff: no retry starts past the deadline, and each attempt carries
// the remaining budget to the server, whose handlers bound their own work by
// it (deadline propagation). budget 0 is plain Call.
func (c *Client) CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error) {
	var epoch uint64
	if c.Epoch != nil {
		epoch = c.Epoch()
	}
	seq, watermark := c.begin()
	defer c.finish(seq)
	e := envelopePool.Get().(*envelope)
	e.buf = appendEnvelope(e.buf[:0], reqHeader{client: c.id, seq: seq, watermark: watermark, epoch: epoch}, payload)
	defer func() {
		if cap(e.buf) > maxPooledEnvelopeBytes {
			e.buf = nil
		}
		envelopePool.Put(e)
	}()
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var lastErr error
	retries := c.Retries
	if retries <= 0 {
		retries = 8
	}
	for i := 0; i < retries; i++ {
		remaining := time.Duration(0)
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				if lastErr == nil {
					lastErr = fmt.Errorf("%w: %s/%s within %v", ErrBudgetExceeded, addr, method, budget)
				}
				return nil, fmt.Errorf("%w: %s/%s: %w", ErrBudgetExceeded, addr, method, lastErr)
			}
		}
		c.mu.Lock()
		c.attempts++
		c.mu.Unlock()
		resp, err := c.t.CallBudget(addr, method, e.buf, remaining)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrRemote) {
			return nil, err
		}
		lastErr = err
		if d := c.backoffFor(i); d > 0 {
			time.Sleep(d)
		}
	}
	return nil, fmt.Errorf("rpc: call %s/%s failed after %d attempts: %w", addr, method, retries, lastErr)
}

// backoffFor computes the pause after failed attempt number attempt (zero
// based): Backoff doubled per attempt, capped at maxBackoff, with ±25%
// jitter. Backoff <= 0 disables sleeping.
func (c *Client) backoffFor(attempt int) time.Duration {
	if c.Backoff <= 0 {
		return 0
	}
	d := c.Backoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Jitter in [0.75d, 1.25d): desynchronizes retry storms without
	// changing the expected pause.
	j := d / 4
	if j > 0 {
		d = d - j + time.Duration(rand.Int63n(int64(2*j)))
	}
	return d
}

// envMagic opens every request envelope. The framing before it — a u16
// request-ID length whose high bit flagged an epoch stamp — is refused, not
// decoded: an older peer's requests carry no watermark, and a server that
// served them could neither bound its memo nor refuse their stale
// duplicates.
const envMagic = 0xC3

// errEnvelopeFormat refuses a request framed by an older peer.
var errEnvelopeFormat = errors.New("rpc: request envelope not in this format (peer speaks an older protocol)")

// reqHeader is the envelope header of one request: who sent it, its place in
// the client's sequence, the client's completion watermark (every sequence
// number below it has returned to its caller) and the replication epoch
// stamp (0 = unstamped, DESIGN.md §5.4).
type reqHeader struct {
	client    string
	seq       uint64
	watermark uint64
	epoch     uint64
}

// appendEnvelope frames a request header and payload onto dst:
//
//	magic u8 | uvarint len(client) | client | uvarint seq |
//	uvarint watermark | uvarint epoch | payload
//
// It is allocation-free when dst has capacity.
func appendEnvelope(dst []byte, h reqHeader, payload []byte) []byte {
	dst = append(dst, envMagic)
	dst = binary.AppendUvarint(dst, uint64(len(h.client)))
	dst = append(dst, h.client...)
	dst = binary.AppendUvarint(dst, h.seq)
	dst = binary.AppendUvarint(dst, h.watermark)
	dst = binary.AppendUvarint(dst, h.epoch)
	return append(dst, payload...)
}

// decodeEnvelope splits a framed request into its header and payload. A
// watermark above the request's own sequence number is malformed: the
// request itself is still open at its client.
func decodeEnvelope(env []byte) (h reqHeader, payload []byte, err error) {
	if len(env) == 0 || env[0] != envMagic {
		return h, nil, errEnvelopeFormat
	}
	rest := env[1:]
	var fields [4]uint64
	for i := range fields {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return h, nil, errors.New("rpc: truncated envelope")
		}
		rest = rest[n:]
		fields[i] = v
		if i == 0 { // the client id follows its length
			if v > uint64(len(rest)) {
				return h, nil, errors.New("rpc: truncated envelope client id")
			}
			h.client, rest = string(rest[:v]), rest[v:]
		}
	}
	h.seq, h.watermark, h.epoch = fields[1], fields[2], fields[3]
	if h.watermark > h.seq {
		return h, nil, fmt.Errorf("rpc: envelope watermark %d beyond its own sequence %d", h.watermark, h.seq)
	}
	return h, rest, nil
}

// Dedup wraps a handler with at-most-once execution per request ID: repeated
// deliveries return the memoized first response. Combined with Client
// retries this yields exactly-once effects. See Deduper for the mechanism
// and the memo bounds; Dedup uses the default limits and serves with zero
// deadlines.
func Dedup(h Handler) Handler {
	d := NewDeduper(func(_ time.Time, method string, payload []byte) ([]byte, error) {
		return h(method, payload)
	}, 0, 0)
	return func(method string, env []byte) ([]byte, error) {
		return d.Handle(time.Time{}, method, env)
	}
}

// DedupDeadlineFenced is Dedup for a deadline-aware handler chain — the
// per-call deadline flows through the memo to h on first execution — with
// epoch fencing: before each request's first execution, fence (nil for none)
// is consulted with the epoch stamped on the envelope (0 when unstamped) and
// a non-nil result refuses the call without running h. The refusal is memoized like any handler error, so
// client retries of a fenced request never slip through. Use EpochFence for
// the standard stale-node rule.
func DedupDeadlineFenced(h DeadlineHandler, fence func(clientEpoch uint64) error) DeadlineHandler {
	d := NewDeduper(h, 0, 0)
	d.fence = fence
	return d.Handle
}
