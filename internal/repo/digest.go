package repo

import (
	"fmt"
	"sort"
	"strings"

	"concord/internal/version"
)

// StateDigest renders the complete durable repository state
// deterministically: sequence counter, derivation graph structure per DA,
// DOV set (payload bytes included) and metadata store. Two repositories
// with equal digests are byte-identical as far as recovery is concerned —
// the scenario harness's byte-identical-recovery and twin-replay oracles
// compare digests taken before a crash and after the restarted twin
// recovers, and the checkpoint-equivalence battery (§3.8) compares an
// incrementally checkpointed repository recovered at every catalogued
// crash point against its quiescent twin. The repository is quiesced
// (writers excluded) for the duration of the call.
func (r *Repository) StateDigest() (string, error) {
	var b strings.Builder
	// Quiesce writers (exclusive side of the §3.7 lock order) for a stable
	// cut across the sharded index, DA directory and metadata store.
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(&b, "seq=%d\n", r.seq.Load())
	das := *r.dasPub.Load()
	names := make([]string, 0, len(das))
	for da := range das {
		names = append(names, da)
	}
	sort.Strings(names)
	for _, da := range names {
		g := das[da].g
		fmt.Fprintf(&b, "graph %s:", da)
		for _, id := range g.IDs() {
			fmt.Fprintf(&b, " %s>[%s]", id, joinIDStrings(g.Children(id)))
		}
		b.WriteByte('\n')
	}
	entries := make(map[version.ID]*dovEntry)
	r.idx.each(func(id version.ID, e *dovEntry) { entries[id] = e })
	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		e := entries[version.ID(id)]
		v := e.dov
		fmt.Fprintf(&b, "dov %s dot=%s da=%s parents=[%s] status=%d seq=%d root=%t obj=%x\n",
			v.ID, v.DOT, v.DA, joinIDStrings(v.Parents), v.Status, v.Seq, e.root, e.enc)
	}
	r.metaMu.Lock()
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "meta %s=%x\n", k, r.meta[k])
	}
	r.metaMu.Unlock()
	return b.String(), nil
}

// joinIDStrings joins version IDs with commas for digest rendering.
func joinIDStrings(ids []version.ID) string {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = string(id)
	}
	return strings.Join(ss, ",")
}
