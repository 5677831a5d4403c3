// Package lock implements the concurrency-control mechanisms of the CONCORD
// transaction and cooperation managers (Sects. 5.2, 5.4):
//
//   - short read/write locks (S/X) protecting checkin/checkout and the
//     proliferation of a DA's derivation graph,
//   - long derivation locks (D) preventing multiple checkout of a DOV for
//     application-specific reasons,
//   - waits-for-graph deadlock detection (the requester closing a cycle is
//     rejected with ErrDeadlock),
//   - a scope-lock table with nested-transaction-style inheritance that
//     controls the dissemination of preliminary design information among
//     DAs (see scope.go).
//
// The lock table is sharded: resources hash onto a fixed array of shards,
// each with its own mutex and condition variable, so lock traffic from
// concurrent workstations on disjoint resources never contends. The
// waits-for graph used for deadlock detection stays global (cycles span
// shards); it lives under its own mutex, always acquired after a shard
// mutex, never before.
package lock

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"time"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// S is a short shared (read) lock.
	S Mode = iota + 1
	// X is a short exclusive (write) lock.
	X
	// D is a long derivation lock: it prevents concurrent derivation
	// (checkout for update) of a DOV but still admits readers.
	D
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case S:
		return "S"
	case X:
		return "X"
	case D:
		return "D"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// compatible reports whether a lock in mode held can coexist with a request
// in mode req by a different owner.
func compatible(held, req Mode) bool {
	switch held {
	case S:
		return req == S || req == D
	case D:
		return req == S
	case X:
		return false
	default:
		return false
	}
}

// Errors reported by the manager.
var (
	// ErrDeadlock rejects a request that would close a waits-for cycle.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrTimeout rejects a request that waited longer than its bound.
	ErrTimeout = errors.New("lock: wait timed out")
	// ErrNotHeld reports a release of a lock the owner does not hold.
	ErrNotHeld = errors.New("lock: not held")
	// ErrOwnerEvicted rejects a queued request whose owner was forcibly
	// evicted from the table (ReleaseOwner) while it waited.
	ErrOwnerEvicted = errors.New("lock: owner evicted")
)

type waiter struct {
	owner   string
	mode    Mode
	ready   bool
	evicted bool
}

type entry struct {
	granted map[string]Mode // owner → strongest held mode
	queue   []*waiter
}

// shard is one slice of the lock table with its own latch.
type shard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	table map[string]*entry
}

// DefaultShards is the shard count of NewManager. 64 comfortably exceeds
// the concurrency of any realistic workstation population while keeping the
// table array small.
const DefaultShards = 64

// Manager is a lock table over string-named resources. All methods are safe
// for concurrent use.
type Manager struct {
	shards []*shard
	seed   maphash.Seed

	// wfMu guards the global waits-for graph. Lock ordering: a shard mutex
	// may be held when acquiring wfMu; never the reverse.
	wfMu    sync.Mutex
	waitFor map[string]map[string]bool // waiter owner → blocking owners
}

// NewManager returns an empty lock manager with DefaultShards shards.
func NewManager() *Manager { return NewManagerWithShards(DefaultShards) }

// NewManagerWithShards returns an empty lock manager with n shards (n < 1 is
// treated as 1). A single shard reproduces the pre-sharding fully serialized
// behaviour; experiments use it as the contention baseline.
func NewManagerWithShards(n int) *Manager {
	if n < 1 {
		n = 1
	}
	m := &Manager{
		shards:  make([]*shard, n),
		seed:    maphash.MakeSeed(),
		waitFor: make(map[string]map[string]bool),
	}
	for i := range m.shards {
		sh := &shard{table: make(map[string]*entry)}
		sh.cond = sync.NewCond(&sh.mu)
		m.shards[i] = sh
	}
	return m
}

// Shards reports the shard count (diagnostics, experiments).
func (m *Manager) Shards() int { return len(m.shards) }

// shardFor maps a resource name onto its shard.
func (m *Manager) shardFor(resource string) *shard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	return m.shards[maphash.String(m.seed, resource)%uint64(len(m.shards))]
}

// stronger reports whether a covers b (holding a satisfies a request for b).
func stronger(a, b Mode) bool {
	if a == b {
		return true
	}
	switch a {
	case X:
		return true // X covers S and D
	case D:
		return b == S // D covers read access
	default:
		return false
	}
}

// grantable reports whether owner may be granted mode on e right now,
// ignoring the queue (the caller handles queue fairness).
func grantable(e *entry, owner string, mode Mode) bool {
	for o, held := range e.granted {
		if o == owner {
			continue
		}
		if !compatible(held, mode) {
			return false
		}
	}
	return true
}

// Acquire obtains mode on resource for owner, blocking up to timeout.
// Reentrant: if owner already holds an equal or stronger mode the call
// returns immediately; an upgrade (e.g. S→X) is granted as soon as it is
// compatible with the other holders. A timeout of 0 means "do not wait":
// the request fails immediately with ErrTimeout if it cannot be granted.
func (m *Manager) Acquire(owner, resource string, mode Mode, timeout time.Duration) error {
	sh := m.shardFor(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	e := sh.table[resource]
	if e == nil {
		e = &entry{granted: make(map[string]Mode)}
		sh.table[resource] = e
	}
	if held, ok := e.granted[owner]; ok && stronger(held, mode) {
		return nil
	}
	// Fast path: immediately grantable and no earlier waiter needs priority.
	if grantable(e, owner, mode) && len(e.queue) == 0 {
		grant(e, owner, mode)
		return nil
	}
	if timeout == 0 {
		return fmt.Errorf("%w: %s on %s for %s", ErrTimeout, mode, resource, owner)
	}
	// Deadlock check before enqueueing.
	if m.wouldDeadlock(owner, e) {
		return fmt.Errorf("%w: %s requesting %s on %s", ErrDeadlock, owner, mode, resource)
	}
	w := &waiter{owner: owner, mode: mode}
	e.queue = append(e.queue, w)
	m.setWaitEdges(owner, e)

	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, sh.cond.Broadcast)
	defer timer.Stop()

	for !w.ready {
		if w.evicted {
			m.clearWaitEdges(owner)
			return fmt.Errorf("%w: %s on %s for %s", ErrOwnerEvicted, mode, resource, owner)
		}
		if time.Now().After(deadline) {
			dequeue(e, w)
			m.clearWaitEdges(owner)
			m.promote(sh, resource, e)
			return fmt.Errorf("%w: %s on %s for %s", ErrTimeout, mode, resource, owner)
		}
		// Re-check deadlock before every wait, including the first. This
		// closes the cross-shard publish race: each requester publishes its
		// own edges (setWaitEdges above) before checking, so whichever
		// requester of a freshly closed cycle checks last sees every edge
		// of the cycle and rejects itself promptly — no broadcast needed.
		if m.wouldDeadlock(owner, e) {
			dequeue(e, w)
			m.clearWaitEdges(owner)
			m.promote(sh, resource, e)
			return fmt.Errorf("%w: %s requesting %s on %s", ErrDeadlock, owner, mode, resource)
		}
		sh.cond.Wait()
	}
	m.clearWaitEdges(owner)
	return nil
}

// grant records the lock, keeping the strongest mode per owner.
func grant(e *entry, owner string, mode Mode) {
	if held, ok := e.granted[owner]; !ok || !stronger(held, mode) {
		e.granted[owner] = mode
	}
}

func dequeue(e *entry, w *waiter) {
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// promote grants queued requests that are now compatible, in FIFO order,
// stopping at the first ungrantable one (no overtaking, avoids starvation).
// The caller holds sh.mu.
func (m *Manager) promote(sh *shard, resource string, e *entry) {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if !grantable(e, w.owner, w.mode) {
			break
		}
		grant(e, w.owner, w.mode)
		w.ready = true
		m.clearWaitEdges(w.owner)
		e.queue = e.queue[1:]
	}
	if len(e.granted) == 0 && len(e.queue) == 0 {
		delete(sh.table, resource)
	}
	sh.cond.Broadcast()
}

// Release drops owner's lock on resource and wakes compatible waiters.
func (m *Manager) Release(owner, resource string) error {
	sh := m.shardFor(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[resource]
	if e == nil {
		return fmt.Errorf("%w: %s on %s", ErrNotHeld, owner, resource)
	}
	if _, ok := e.granted[owner]; !ok {
		return fmt.Errorf("%w: %s on %s", ErrNotHeld, owner, resource)
	}
	delete(e.granted, owner)
	m.refreshWaitEdges(e)
	m.promote(sh, resource, e)
	return nil
}

// ReleaseAll drops every lock held by owner (transaction end).
func (m *Manager) ReleaseAll(owner string) {
	for _, sh := range m.shards {
		sh.mu.Lock()
		for res, e := range sh.table {
			if _, ok := e.granted[owner]; ok {
				delete(e.granted, owner)
				m.refreshWaitEdges(e)
				m.promote(sh, res, e)
			}
		}
		sh.mu.Unlock()
	}
	m.clearWaitEdges(owner)
}

// ReleaseOwner forcibly evicts owner from the lock table (workstation
// reaping). Unlike ReleaseAll it also cancels the owner's queued requests:
// a handler goroutine still blocked in Acquire on the dead owner's behalf
// fails promptly with ErrOwnerEvicted instead of running out its deadline,
// and FIFO promotion is re-run so waiters stuck behind the evicted request
// are granted. All wait-for edges of the owner are cleared, so the deadlock
// detector never sees a ghost. Returns the number of resources on which the
// owner held a granted lock.
func (m *Manager) ReleaseOwner(owner string) int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for res, e := range sh.table {
			touched := false
			if _, ok := e.granted[owner]; ok {
				delete(e.granted, owner)
				n++
				touched = true
			}
			kept := e.queue[:0]
			for _, q := range e.queue {
				if q.owner == owner {
					q.evicted = true
					touched = true
				} else {
					kept = append(kept, q)
				}
			}
			e.queue = kept
			if touched {
				m.refreshWaitEdges(e)
				m.promote(sh, res, e)
			}
		}
		sh.mu.Unlock()
	}
	m.clearWaitEdges(owner)
	return n
}

// Holds reports the mode owner currently holds on resource (0 if none).
func (m *Manager) Holds(owner, resource string) Mode {
	sh := m.shardFor(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.table[resource]; e != nil {
		return e.granted[owner]
	}
	return 0
}

// Holders returns the owners holding locks on resource, sorted.
func (m *Manager) Holders(resource string) []string {
	sh := m.shardFor(resource)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[resource]
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.granted))
	for o := range e.granted {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// ownersAhead returns the owners owner waits for on e: the current holders
// plus the queued waiters ahead of owner's position (all of them when owner
// is not queued yet: it joins at the tail). Later waiters cannot block owner,
// so counting them would manufacture phantom cycles. The caller holds the
// entry's shard mutex.
func ownersAhead(owner string, e *entry) map[string]bool {
	edges := make(map[string]bool)
	for o := range e.granted {
		if o != owner {
			edges[o] = true
		}
	}
	for _, q := range e.queue {
		if q.owner == owner {
			break
		}
		edges[q.owner] = true
	}
	return edges
}

// setWaitEdges records owner as waiting for ownersAhead(owner, e). The caller
// holds the entry's shard mutex.
func (m *Manager) setWaitEdges(owner string, e *entry) {
	edges := ownersAhead(owner, e)
	m.wfMu.Lock()
	m.waitFor[owner] = edges
	m.wfMu.Unlock()
}

func (m *Manager) clearWaitEdges(owner string) {
	m.wfMu.Lock()
	delete(m.waitFor, owner)
	m.wfMu.Unlock()
}

// refreshWaitEdges recomputes edges for waiters of e after a holder change.
// The caller holds the entry's shard mutex.
func (m *Manager) refreshWaitEdges(e *entry) {
	for _, q := range e.queue {
		m.setWaitEdges(q.owner, e)
	}
}

// wouldDeadlock reports whether owner waiting on e closes a waits-for cycle.
// The caller holds the entry's shard mutex; the graph itself is global, so
// cycles through resources on other shards are found too.
func (m *Manager) wouldDeadlock(owner string, e *entry) bool {
	targets := ownersAhead(owner, e)
	m.wfMu.Lock()
	defer m.wfMu.Unlock()
	// DFS from each target through waitFor; a path back to owner is a cycle.
	seen := make(map[string]bool)
	var reach func(string) bool
	reach = func(from string) bool {
		if from == owner {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for next := range m.waitFor[from] {
			if reach(next) {
				return true
			}
		}
		return false
	}
	for t := range targets {
		if reach(t) {
			return true
		}
	}
	return false
}
