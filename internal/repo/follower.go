package repo

// Warm-standby follower mode (DESIGN.md §5.4). A follower repository is the
// standby half of WAL shipping: the primary's group-commit batches arrive as
// raw frames (wal.Shipper → internal/repl → ApplyShipped here), land in the
// follower's own log at identical LSNs, and are applied record by record to
// the live MVCC index, DA graphs and metadata store — the same switch the
// restart replay runs, but against published state, so the standby stays
// within one shipped batch of the primary and promotion is O(tail), not
// O(history). The replication epoch (promotion term) is persisted in the
// snapshot manifest as a kind-3 entry; BumpEpoch is the durable half of a
// promotion's fencing, Promote the in-memory half.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"concord/internal/version"
	"concord/internal/wal"
)

// Follower reports whether the repository is in warm-standby follower mode.
func (r *Repository) Follower() bool { return r.follower.Load() }

// Epoch reports the replication epoch (promotion term) the repository last
// persisted. Lock-free.
func (r *Repository) Epoch() uint64 { return r.epoch.Load() }

// Promote ends follower mode: direct mutations are accepted from here on.
// Callers bump the epoch durably first (BumpEpoch) so a deposed primary's
// shipped batches are fenced before the first new write lands. Idempotent.
func (r *Repository) Promote() {
	r.follower.Store(false)
}

// BumpEpoch durably raises the replication epoch to e, persisting it as a
// manifest entry before the in-memory value moves — after it returns, no
// crash can resurrect a lower term. Raising to the current value is a no-op;
// lowering is refused. Volatile repositories keep the epoch in memory only.
func (r *Repository) BumpEpoch(e uint64) error {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	cur := r.epoch.Load()
	if e == cur {
		return nil
	}
	if e < cur {
		return fmt.Errorf("repo: epoch may not move backwards (%d -> %d)", cur, e)
	}
	if r.dir != "" {
		if err := r.persistEpoch(e); err != nil {
			return err
		}
	}
	r.epoch.Store(e)
	return nil
}

// persistEpoch writes the epoch manifest entry: appended as one fsynced
// frame when a manifest exists, otherwise installed as a fresh manifest via
// the atomic rebase path. Caller holds ckptMu (the manifest writer lock).
func (r *Repository) persistEpoch(e uint64) error {
	entry := epochEntry(e)
	if _, err := os.Stat(filepath.Join(r.dir, manifestName)); err == nil {
		return r.appendManifest(entry)
	}
	return r.rebaseManifest([]manifestEntry{entry})
}

// ApplyShipped ingests one shipped batch: the frames are appended to the
// follower's log at exactly LSN start (AppendRaw refuses gaps, which is how
// a missed batch is detected and catch-up triggered), then each record is
// applied to the live state under the exclusive quiesce lock. An apply
// failure after the durable append latches fail-stop — the log and memory
// would otherwise diverge — but cannot lose committed work: a restart
// replays the appended records through the normal recovery path.
func (r *Repository) ApplyShipped(start wal.LSN, frames []byte) error {
	if r.log == nil {
		return errors.New("repo: volatile repository cannot ingest shipped batches")
	}
	if !r.follower.Load() {
		return fmt.Errorf("%w: not a follower", ErrValidation)
	}
	if err := r.writable(); err != nil {
		return err
	}
	if err := r.log.AppendRaw(start, frames); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _, err := wal.ForEachFrame(start, frames, r.applyFollowerRecord)
	if err != nil {
		ferr := fmt.Errorf("%w: follower apply: %v", ErrFatal, err)
		r.fatal.CompareAndSwap(nil, &ferr)
	}
	return err
}

// ReplTail reports the follower log's append position: the LSN the next
// shipped batch must start at.
func (r *Repository) ReplTail() wal.LSN {
	if r.log == nil {
		return 0
	}
	return wal.LSN(r.log.Size())
}

// applyFollowerRecord applies one shipped record to the live state. Caller
// holds the quiesce lock exclusively, so no in-flight mutator exists; the
// published structures (COW index shards, DA directory, graphs) are still
// updated through their normal publication paths because lock-free readers
// observe them without the quiesce lock.
func (r *Repository) applyFollowerRecord(rec wal.Record) error {
	switch rec.Type {
	case recGraphNew:
		da := string(rec.Payload)
		r.dasMu.Lock()
		if _, ok := r.das[da]; !ok {
			r.das[da] = &daState{g: version.NewGraph(da)}
			r.publishDAs()
		}
		r.dasMu.Unlock()
	case recDOVInsert:
		d, err := decodeInsert(rec.Payload)
		if err != nil {
			return err
		}
		return r.installShippedInsert(d)
	case recDOVStatus:
		return r.applyShippedStatus(rec.Payload)
	case recMetaPut:
		key, value, ok := splitMetaPayload(rec.Payload)
		if !ok {
			return errors.New("repo: shipped meta record: bad payload")
		}
		r.metaMu.Lock()
		r.meta[key] = append([]byte(nil), value...)
		r.metaGen++
		r.metaMu.Unlock()
	case recMetaDel:
		r.metaMu.Lock()
		if _, ok := r.meta[string(rec.Payload)]; ok {
			delete(r.meta, string(rec.Payload))
			r.metaGen++
		}
		r.metaMu.Unlock()
	}
	return nil
}

// installShippedInsert publishes one shipped DOV exactly as the primary's
// checkin did: claim, graph insert, index publication.
func (r *Repository) installShippedInsert(dr *dovRecord) error {
	v := dr.meta()
	r.dasMu.Lock()
	st, ok := r.das[dr.DA]
	if !ok {
		st = &daState{g: version.NewGraph(dr.DA)}
		r.das[dr.DA] = st
		r.publishDAs()
	}
	r.dasMu.Unlock()
	if !r.idx.claim(v.ID) {
		return fmt.Errorf("%w: shipped %s", version.ErrDuplicateDOV, v.ID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if dr.Root {
		if err := st.g.AdoptRoot(v); err != nil {
			r.idx.unclaim(v.ID)
			return err
		}
	} else if err := st.g.InsertDerived(v); err != nil {
		r.idx.unclaim(v.ID)
		return err
	}
	r.idx.put(v.ID, &dovEntry{dov: v, enc: dr.Object, root: dr.Root})
	if dr.Seq > r.seq.Load() {
		r.seq.Store(dr.Seq)
	}
	return nil
}

// applyShippedStatus applies a shipped status record through the normal
// republication path (fresh immutable record, graph swap).
func (r *Repository) applyShippedStatus(payload []byte) error {
	id, rest, ok := splitMetaPayload(payload)
	if !ok || len(rest) != 1 {
		return errors.New("repo: shipped status record: bad payload")
	}
	e, found := r.idx.get(version.ID(id))
	if !found {
		return fmt.Errorf("repo: shipped status for unknown DOV %s", id)
	}
	st, found := (*r.dasPub.Load())[e.dov.DA]
	if !found {
		return fmt.Errorf("%w: %s", ErrUnknownGraph, e.dov.DA)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e, _ = r.idx.get(version.ID(id))
	nv := *e.dov
	nv.Status = version.Status(rest[0])
	return r.republish(st, &nv, e)
}

// splitMetaPayload splits a NUL-separated payload into its key and value.
func splitMetaPayload(p []byte) (string, []byte, bool) {
	for i, b := range p {
		if b == 0 {
			return string(p[:i]), p[i+1:], true
		}
	}
	return "", nil, false
}
