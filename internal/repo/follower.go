package repo

// Warm-standby follower mode (DESIGN.md §5.4). A follower repository is the
// standby half of WAL shipping: the primary's group-commit batches arrive as
// raw frames (wal.Shipper → internal/repl → ApplyShipped here), land in the
// follower's own log at identical LSNs, and are applied record by record to
// the live MVCC index, DA graphs and metadata store by applyRecord, the
// applier restart replay runs too, so the standby stays within one shipped
// batch of the primary and promotion is O(tail), not O(history). A follower
// checkpoints like any durable repository. The replication epoch (promotion
// term) is persisted in the snapshot manifest as a kind-3 entry; BumpEpoch
// is the durable half of a promotion's fencing, Promote the in-memory half.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

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
// replays the appended records through the same applier.
func (r *Repository) ApplyShipped(start wal.LSN, frames []byte) error {
	if r.log == nil {
		return errors.New("repo: volatile repository cannot ingest shipped batches")
	}
	if !r.follower.Load() {
		return fmt.Errorf("%w: not a follower", ErrValidation)
	}
	// The quiesce lock spans append and apply: a checkpoint cut between the
	// two would cover records not yet applied, and its log mark would drop
	// them (the §3.7 invariant every primary mutation keeps).
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.writable(); err != nil {
		return err
	}
	if err := r.log.AppendRaw(start, frames); err != nil {
		return err
	}
	_, _, err := wal.ForEachFrame(start, frames, r.applyRecord)
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
