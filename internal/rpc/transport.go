// Package rpc provides the communication substrate of CONCORD's
// workstation/server architecture (Sect. 5.1): message transports, a
// reliable ("transactional RPC") client achieving exactly-once effects over
// unreliable delivery, and a presumed-abort two-phase commit engine with
// persistent coordinator and participant logs (Sects. 5.2, 5.5, 6 and
// [GR93, SBCM93]).
//
// Two transports are provided: an in-process transport with deterministic
// fault injection (drop, duplicate, delay) for simulation and tests, and a
// TCP transport (stdlib net + gob) for real LAN deployment via cmd/concordd.
package rpc

import (
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

// Transport delivers single request/response attempts. Delivery may fail;
// the Client layers retries and deduplication on top.
type Transport interface {
	// Call performs one unreliable request attempt against addr.
	Call(addr, method string, payload []byte) ([]byte, error)
	// Serve registers the handler for addr. It replaces any previous
	// handler for that address.
	Serve(addr string, h Handler) error
	// Close releases transport resources.
	Close() error
}

// BudgetCaller is implemented by transports that can attach a per-call time
// budget: the call fails once the budget elapses, and the budget travels to
// the peer so the serving DeadlineHandler sees the matching deadline. A
// budget of 0 means "no per-call bound" (the transport's defaults apply).
type BudgetCaller interface {
	// CallBudget performs one request attempt bounded by budget.
	CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error)
}

// DeadlineServer is implemented by transports that deliver per-call
// deadlines to their handlers.
type DeadlineServer interface {
	// ServeDeadline registers a deadline-aware handler for addr.
	ServeDeadline(addr string, h DeadlineHandler) error
}

// ServeWithDeadline registers h at addr, threading per-call deadlines when
// the transport supports them and degrading to zero deadlines otherwise.
func ServeWithDeadline(t Transport, addr string, h DeadlineHandler) error {
	if ds, ok := t.(DeadlineServer); ok {
		return ds.ServeDeadline(addr, h)
	}
	return t.Serve(addr, func(method string, payload []byte) ([]byte, error) {
		return h(time.Time{}, method, payload)
	})
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

// ServeDeadline registers a deadline-aware handler for addr: calls made with
// CallBudget deliver their deadline to h.
func (t *InProc) ServeDeadline(addr string, h DeadlineHandler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("rpc: transport closed")
	}
	t.handlers[addr] = h
	return nil
}

// Partition makes addr unreachable (simulated crash or network partition).
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
type Client struct {
	t Transport
	// Retries bounds the attempts per call (default 8).
	Retries int
	// Backoff is the pause before the first retry (default 1ms; 0 disables
	// sleeping entirely, which in-proc tests rely on). Subsequent retries
	// double the pause up to MaxBackoff, with ±25% jitter so a fleet of
	// workstations retrying against a restarting server does not stampede
	// in lockstep.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 100ms).
	MaxBackoff time.Duration
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
}

// Attempts reports the total transport attempts made (including retries);
// the difference to the logical call count is the loss-recovery overhead.
func (c *Client) Attempts() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// NewClient wraps a transport in a reliable caller. id must be unique among
// clients sharing a server (it prefixes request IDs).
func NewClient(t Transport, id string) *Client {
	return &Client{t: t, Retries: 8, Backoff: time.Millisecond, id: id}
}

// nextRequestID returns a client-unique request identifier.
func (c *Client) nextRequestID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return fmt.Sprintf("%s#%d", c.id, c.seq)
}

// envelopePool recycles request framing buffers: every reliable call frames
// its payload into an envelope, and under multi-workstation load that was
// one allocation (plus a payload-sized copy into fresh memory) per RPC.
// Safe because transports hand the envelope to the peer synchronously and
// handlers must not retain payloads (see Handler).
var envelopePool = sync.Pool{New: func() any { return new(envelope) }}

// envelope is a pooled framing buffer.
type envelope struct{ buf []byte }

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
// and backoff: no retry starts past the deadline, and on budget-aware
// transports each attempt carries the remaining budget to the server, whose
// handlers bound their own work by it (deadline propagation). budget 0 is
// plain Call.
func (c *Client) CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error) {
	var epoch uint64
	if c.Epoch != nil {
		epoch = c.Epoch()
	}
	e := envelopePool.Get().(*envelope)
	e.buf = appendEnvelopeEpoch(e.buf[:0], c.nextRequestID(), epoch, payload)
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
	bc, budgeted := c.t.(BudgetCaller)
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
		var resp []byte
		var err error
		if budgeted {
			resp, err = bc.CallBudget(addr, method, e.buf, remaining)
		} else {
			resp, err = c.t.Call(addr, method, e.buf)
		}
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
// based): Backoff doubled per attempt, capped at MaxBackoff, with ±25%
// jitter. Backoff <= 0 disables sleeping.
func (c *Client) backoffFor(attempt int) time.Duration {
	if c.Backoff <= 0 {
		return 0
	}
	maxB := c.MaxBackoff
	if maxB <= 0 {
		maxB = 100 * time.Millisecond
	}
	d := c.Backoff
	for i := 0; i < attempt && d < maxB; i++ {
		d *= 2
	}
	if d > maxB {
		d = maxB
	}
	// Jitter in [0.75d, 1.25d): desynchronizes retry storms without
	// changing the expected pause.
	j := d / 4
	if j > 0 {
		d = d - j + time.Duration(rand.Int63n(int64(2*j)))
	}
	return d
}

// envEpochFlag marks an envelope whose request ID is followed by an 8-byte
// big-endian replication epoch. It rides the high bit of the u16 ID-length
// field, so epoch-free envelopes are byte-identical to the v1 framing —
// unstamped clients and fenced servers interoperate without negotiation.
// Request IDs are "<client>#<seq>", far below the remaining 15 bits.
const envEpochFlag = 0x8000

// appendEnvelope frames a request ID and payload onto dst (allocation-free
// when dst has capacity).
func appendEnvelope(dst []byte, reqID string, payload []byte) []byte {
	return appendEnvelopeEpoch(dst, reqID, 0, payload)
}

// appendEnvelopeEpoch is appendEnvelope with a replication-epoch stamp;
// epoch 0 means unstamped and produces the v1 framing.
func appendEnvelopeEpoch(dst []byte, reqID string, epoch uint64, payload []byte) []byte {
	field := len(reqID)
	if epoch > 0 {
		field |= envEpochFlag
	}
	dst = append(dst, byte(field>>8), byte(field))
	dst = append(dst, reqID...)
	if epoch > 0 {
		dst = append(dst,
			byte(epoch>>56), byte(epoch>>48), byte(epoch>>40), byte(epoch>>32),
			byte(epoch>>24), byte(epoch>>16), byte(epoch>>8), byte(epoch))
	}
	return append(dst, payload...)
}

// decodeEnvelope splits a framed request, discarding any epoch stamp.
func decodeEnvelope(env []byte) (reqID string, payload []byte, err error) {
	reqID, _, payload, err = decodeEnvelopeEpoch(env)
	return reqID, payload, err
}

// decodeEnvelopeEpoch splits a framed request; epoch is 0 when the envelope
// carries no stamp.
func decodeEnvelopeEpoch(env []byte) (reqID string, epoch uint64, payload []byte, err error) {
	if len(env) < 2 {
		return "", 0, nil, errors.New("rpc: short envelope")
	}
	field := int(env[0])<<8 | int(env[1])
	n := field &^ envEpochFlag
	rest := env[2:]
	if len(rest) < n {
		return "", 0, nil, errors.New("rpc: truncated envelope")
	}
	reqID, rest = string(rest[:n]), rest[n:]
	if field&envEpochFlag != 0 {
		if len(rest) < 8 {
			return "", 0, nil, errors.New("rpc: truncated envelope epoch")
		}
		epoch = uint64(rest[0])<<56 | uint64(rest[1])<<48 | uint64(rest[2])<<40 | uint64(rest[3])<<32 |
			uint64(rest[4])<<24 | uint64(rest[5])<<16 | uint64(rest[6])<<8 | uint64(rest[7])
		rest = rest[8:]
	}
	return reqID, epoch, rest, nil
}

// Dedup wraps a handler with at-most-once execution per request ID: repeated
// deliveries return the memoized first response. Combined with Client
// retries this yields exactly-once effects. See Deduper for the mechanism
// and the memo bounds; Dedup uses the default limits.
func Dedup(h Handler) Handler {
	return NewDeduper(h, DefaultDedupEntries, DefaultDedupBytes).Handle
}

// DedupDeadlineFenced is Dedup for a deadline-aware handler chain — the
// per-call deadline flows through the memo to h on first execution — with
// epoch fencing: before each request's first execution, fence (nil for none)
// is consulted with the epoch stamped on the envelope (0 when unstamped) and
// a non-nil result refuses the call without running h. The refusal is memoized like any handler error, so
// client retries of a fenced request never slip through. Use EpochFence for
// the standard stale-node rule.
func DedupDeadlineFenced(h DeadlineHandler, fence func(clientEpoch uint64) error) DeadlineHandler {
	d := NewDeadlineDeduper(h, DefaultDedupEntries, DefaultDedupBytes)
	d.fence = fence
	return d.HandleDeadline
}
