package rpc

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Default backstop bounds for the deduplication memo. A client that keeps
// calling acknowledges its replies through its watermark, so its memo holds
// only the calls it still has open; these caps bind only for clients that go
// silent with replies unacknowledged.
const (
	// DefaultDedupEntries caps the number of memoized responses.
	DefaultDedupEntries = 1 << 16
	// DefaultDedupBytes caps the memoized response bytes (client ids
	// included).
	DefaultDedupBytes = 64 << 20
)

// ErrStaleDuplicate refuses a request that arrives below its client's
// completion watermark with no memoized reply: the client already received
// that call's outcome, so this delivery is a late duplicate, and executing
// it again would apply the call twice. The client never reads the refusal —
// it is no longer waiting — so it only keeps a late duplicate from running.
var ErrStaleDuplicate = errors.New("rpc: stale duplicate (request already answered and acknowledged)")

// init registers the stale-duplicate sentinel under its stable wire code
// (range 100–119: rpc/repl; see internal/txn/errcodes.go for the full map).
func init() { RegisterWireError(101, ErrStaleDuplicate) }

// dedupEntry is one request's slot: in flight until done is closed, then a
// memoized result linked into the LRU.
type dedupEntry struct {
	seq  uint64
	from *clientMemo
	done chan struct{} // closed once resp/err are valid
	resp []byte
	err  error
	cost int           // bytes charged against MaxBytes
	elem *list.Element // nil while in flight (in-flight entries are not evictable)
}

// clientMemo is one client's part of the memo: its completion watermark and
// its entries, all at or above the watermark except ones still executing.
type clientMemo struct {
	id        string
	watermark uint64
	entries   map[uint64]*dedupEntry
}

// Deduper gives a handler at-most-once execution per request ID, the server
// half of the exactly-once contract (Client retries with a stable ID, the
// Deduper memoizes the first outcome until the client acknowledges it).
//
// Three properties matter beyond plain memoization:
//
//   - Single flight: a duplicate that arrives while the first delivery is
//     still executing does not run the handler a second time — it waits for
//     the in-flight execution and returns its memoized result. (The naive
//     check-then-execute version had a window where concurrent duplicates
//     both executed, which is precisely the double-apply the layer exists to
//     prevent.)
//   - Acknowledgement bounds the memo: every envelope carries its client's
//     completion watermark, and entries of that client below it are dropped
//     as soon as it is seen — the client has its replies. A request below
//     the watermark with no entry is a late duplicate and is refused with
//     ErrStaleDuplicate, never re-executed. A client that keeps calling
//     therefore holds about as many entries as it has calls open.
//   - Backstop: completed results live in an LRU capped by MaxEntries and
//     MaxBytes, which binds only for clients that go silent with
//     unacknowledged replies; the oldest results are evicted first, and a
//     client whose last entry is evicted is forgotten with its watermark.
//     In-flight entries are never evicted. An evicted ID that is redelivered
//     re-executes, so the bounds must comfortably exceed what silent
//     clients leave behind.
type Deduper struct {
	// MaxEntries caps memoized results (default DefaultDedupEntries).
	MaxEntries int
	// MaxBytes caps memoized bytes, responses plus client ids (default
	// DefaultDedupBytes).
	MaxBytes int

	h DeadlineHandler
	// fence, when set, is consulted with the envelope's epoch stamp before
	// the first execution of each request; a non-nil result (ErrStaleEpoch)
	// is memoized exactly like a handler error, so retries of a fenced
	// request stay fenced. See DedupDeadlineFenced.
	fence   func(clientEpoch uint64) error
	mu      sync.Mutex
	clients map[string]*clientMemo
	lru     *list.List // front = most recently used; completed entries only
	entries int        // memoized and in-flight, over all clients
	bytes   int
	evicted uint64
}

// NewDeduper wraps h with a bounded exactly-once memo. Non-positive limits
// select the defaults.
func NewDeduper(h Handler, maxEntries, maxBytes int) *Deduper {
	return NewDeadlineDeduper(func(_ time.Time, method string, payload []byte) ([]byte, error) {
		return h(method, payload)
	}, maxEntries, maxBytes)
}

// NewDeadlineDeduper is NewDeduper for a deadline-aware inner handler: the
// per-call deadline passes through the memo untouched (a duplicate delivery
// returns the memoized result regardless of its own deadline).
func NewDeadlineDeduper(h DeadlineHandler, maxEntries, maxBytes int) *Deduper {
	if maxEntries <= 0 {
		maxEntries = DefaultDedupEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDedupBytes
	}
	return &Deduper{
		MaxEntries: maxEntries,
		MaxBytes:   maxBytes,
		h:          h,
		clients:    make(map[string]*clientMemo),
		lru:        list.New(),
	}
}

// DedupStats is a snapshot of the memo for observability and tests.
type DedupStats struct {
	// Entries counts memoized and in-flight request IDs.
	Entries int
	// Bytes is the memoized cost currently charged against MaxBytes.
	Bytes int
	// Evicted counts results dropped by the backstop bounds since creation
	// (not those dropped because their client acknowledged them).
	Evicted uint64
}

// Stats returns a snapshot of the memo.
func (d *Deduper) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DedupStats{Entries: d.entries, Bytes: d.bytes, Evicted: d.evicted}
}

// Handle is the wrapped Handler: it decodes the request envelope and executes
// the inner handler at most once per request ID.
func (d *Deduper) Handle(method string, env []byte) ([]byte, error) {
	return d.HandleDeadline(time.Time{}, method, env)
}

// HandleDeadline is Handle with the transport-propagated per-call deadline,
// forwarded to the inner handler on first execution.
func (d *Deduper) HandleDeadline(deadline time.Time, method string, env []byte) ([]byte, error) {
	hdr, payload, err := decodeEnvelope(env)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	c := d.clients[hdr.client]
	if c == nil {
		c = &clientMemo{id: hdr.client, entries: make(map[uint64]*dedupEntry)}
		d.clients[c.id] = c
	}
	if hdr.watermark > c.watermark {
		c.watermark = hdr.watermark
		d.dropAckedLocked(c)
	}
	if e, ok := c.entries[hdr.seq]; ok {
		if e.elem != nil {
			d.lru.MoveToFront(e.elem)
			d.mu.Unlock()
			return e.resp, e.err
		}
		// In flight: wait for the first delivery's outcome instead of
		// executing again.
		d.mu.Unlock()
		<-e.done
		return e.resp, e.err
	}
	if hdr.seq < c.watermark {
		wm := c.watermark
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %s#%d is below watermark %d", ErrStaleDuplicate, hdr.client, hdr.seq, wm)
	}
	e := &dedupEntry{seq: hdr.seq, from: c, done: make(chan struct{})}
	c.entries[hdr.seq] = e
	d.entries++
	d.mu.Unlock()

	if d.fence != nil {
		if ferr := d.fence(hdr.epoch); ferr != nil {
			e.err = ferr
		} else {
			e.resp, e.err = d.h(deadline, method, payload)
		}
	} else {
		e.resp, e.err = d.h(deadline, method, payload)
	}

	d.mu.Lock()
	if e.seq < c.watermark {
		// Acknowledged while executing (the client gave up on the call):
		// nobody will ask for the result again.
		d.removeLocked(e)
		d.forgetIfIdleLocked(c)
	} else {
		e.cost = len(c.id) + len(e.resp)
		d.bytes += e.cost
		e.elem = d.lru.PushFront(e)
		for d.lru.Len() > d.MaxEntries || d.bytes > d.MaxBytes {
			old := d.lru.Back().Value.(*dedupEntry)
			d.removeLocked(old)
			d.forgetIfIdleLocked(old.from)
			d.evicted++
		}
	}
	d.mu.Unlock()
	close(e.done)
	return e.resp, e.err
}

// dropAckedLocked drops c's completed entries below its watermark. Entries
// still executing stay until they finish. The client record stays too: the
// request that moved the watermark is about to use it. Caller holds d.mu.
func (d *Deduper) dropAckedLocked(c *clientMemo) {
	for seq, e := range c.entries {
		if seq < c.watermark && e.elem != nil {
			d.removeLocked(e)
		}
	}
}

// removeLocked unlinks one entry from its client and the LRU. Caller holds
// d.mu.
func (d *Deduper) removeLocked(e *dedupEntry) {
	if e.elem != nil {
		d.lru.Remove(e.elem)
		d.bytes -= e.cost
	}
	delete(e.from.entries, e.seq)
	d.entries--
}

// forgetIfIdleLocked drops a client record that holds no entry, watermark
// included: an active client always holds the entry of its latest call, so
// only clients emptied by the backstop (or by a call abandoned mid-flight)
// are forgotten. Caller holds d.mu.
func (d *Deduper) forgetIfIdleLocked(c *clientMemo) {
	if len(c.entries) == 0 {
		delete(d.clients, c.id)
	}
}
