package repo

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"concord/internal/version"
)

// Lineages (DESIGN.md §4.1): every published version carries the set of
// parentless versions it descends from, following every parent the
// repository holds in any DA. Two versions are related — worth diffing
// against each other on a checkout miss — exactly when their sets
// intersect. A set is interned once and named by a uint32 id that sits in
// the version's dovEntry, so the index stays pointer-free beyond what it
// held before: a version with one parent reuses that parent's id, a status
// re-publication copies it, and only a parentless version or a merge of two
// lineages enters a new set.
//
// Lineage is computed wherever a version enters the index — Checkin,
// applyRecord (restart replay and shipped batches) and chainFold.install —
// from the parents already published at that point. Those three see
// parents in the same order (log order, or Seq order in the chain, which
// follows it), so a primary, its restart and its standby answer Related the
// same. The one exception is an adopted root naming a parent whose own
// checkin is still in flight: the primary may miss that parent where replay
// finds it. The answer only decides whether a delta is tried, and every
// delta is hash-verified, so such a miss costs at most a full transfer.

// lineages is the per-repository table of interned root sets. Id 0 is never
// assigned, so of can use it as "no parent lineage yet".
type lineages struct {
	// sets maps a lineage id to its sorted root ids; a root's id names the
	// singleton set of the parentless version that opened it. Appended
	// under mu and republished, so Related reads it with one atomic load:
	// an append writes past every length a reader has loaded.
	sets atomic.Pointer[[][]uint32]
	mu   sync.Mutex
	// merged interns sets of more than one root by their key.
	merged map[string]uint32
}

// init publishes the table with id 0 reserved.
func (l *lineages) init() {
	sets := [][]uint32{nil}
	l.sets.Store(&sets)
	l.merged = make(map[string]uint32)
}

// of returns the lineage of a version with the given parents: a parent get
// finds contributes its lineage, one get does not find lies outside the
// repository and adds nothing. With no parent found the version opens a
// lineage of its own.
func (l *lineages) of(parents []version.ID, get func(version.ID) (*dovEntry, bool)) uint32 {
	var one uint32
	var many []uint32
	for _, p := range parents {
		e, ok := get(p)
		if !ok || e.lin == one || slices.Contains(many, e.lin) {
			continue
		}
		if one == 0 {
			one = e.lin
			continue
		}
		if many == nil {
			many = []uint32{one}
		}
		many = append(many, e.lin)
	}
	switch {
	case many != nil:
		return l.union(many)
	case one != 0:
		return one
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := uint32(len(*l.sets.Load()))
	l.add([]uint32{id})
	return id
}

// union interns the union of the given lineages' root sets. A union that
// equals one of its inputs (two branches of one lineage merged) is that
// input.
func (l *lineages) union(ids []uint32) uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	sets := *l.sets.Load()
	var roots []uint32
	for _, id := range ids {
		roots = append(roots, sets[id]...)
	}
	slices.Sort(roots)
	roots = slices.Compact(roots)
	for _, id := range ids {
		if len(sets[id]) == len(roots) {
			return id
		}
	}
	key := make([]byte, 0, 4*len(roots))
	for _, r := range roots {
		key = binary.LittleEndian.AppendUint32(key, r)
	}
	if id, ok := l.merged[string(key)]; ok {
		return id
	}
	id := uint32(len(sets))
	l.merged[string(key)] = id
	l.add(slices.Clip(roots))
	return id
}

// add appends a set and republishes the table. Caller holds mu.
func (l *lineages) add(set []uint32) {
	next := append(*l.sets.Load(), set)
	l.sets.Store(&next)
}

// related reports whether two lineages share a root. Lock-free.
func (l *lineages) related(a, b uint32) bool {
	if a == b {
		return true
	}
	sets := *l.sets.Load()
	x, y := sets[a], sets[b]
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] == y[0]:
			return true
		case x[0] < y[0]:
			x = x[1:]
		default:
			y = y[1:]
		}
	}
	return false
}

// Related reports whether two stored versions share a derivation ancestor:
// a parentless version both descend from, following every parent the
// repository holds in any DA (a version is its own ancestor). The server-TM
// diffs a checkout only against a related base (DESIGN.md §4.1). An unknown
// version relates to nothing. Lock-free, allocation-free, and no payload is
// read.
func (r *Repository) Related(a, b version.ID) bool {
	ea, ok := r.idx.get(a)
	if !ok {
		return false
	}
	eb, ok := r.idx.get(b)
	return ok && r.lin.related(ea.lin, eb.lin)
}
