package repl

import (
	"fmt"
	"sync"
	"time"

	"concord/internal/binenc"
	"concord/internal/fault"
	"concord/internal/rpc"
	"concord/internal/wal"
)

// Follower is the standby-side repository surface the Receiver drives:
// ingest of shipped batches into live state, the replication cursor, and the
// durable epoch used for fencing. *repo.Repository implements it in follower
// mode.
type Follower interface {
	// ApplyShipped lands one batch of raw frames at LSN start and applies
	// its records to the live state.
	ApplyShipped(start wal.LSN, frames []byte) error
	// ReplTail reports the LSN the next shipped batch must start at.
	ReplTail() wal.LSN
	// Epoch reports the durably persisted replication epoch.
	Epoch() uint64
	// BumpEpoch durably raises the replication epoch.
	BumpEpoch(e uint64) error
	// Promote ends follower mode, accepting direct mutations.
	Promote()
}

// ReceiverOptions configures a Receiver.
type ReceiverOptions struct {
	// Faults is the registry traversed at FaultApplyDrop and FaultPromote
	// (nil-safe).
	Faults *fault.Registry
	// OnPromote runs after the follower's epoch is durably bumped and
	// follower mode ended, with the new epoch: the embedding server
	// assembles its primary role here (locks, server-TM recovering in-doubt
	// 2PC branches from the replicated staged records). A failure leaves the
	// promotion retryable.
	OnPromote func(epoch uint64) error
}

// Receiver is the standby half of WAL shipping: it serves MethodHello,
// MethodShip and MethodPromote, ingesting the repository stream through the
// Follower (live apply).
type Receiver struct {
	follower Follower
	opts     ReceiverOptions

	mu       sync.Mutex
	promoted bool
	batches  uint64
	records  uint64
	bytes    uint64
}

// NewReceiver returns a receiver applying the repository stream through
// follower.
func NewReceiver(follower Follower, opts ReceiverOptions) *Receiver {
	return &Receiver{follower: follower, opts: opts}
}

// Handler returns the transport handler serving the replication protocol.
// Register it behind the deduplication layer like any other endpoint.
func (rc *Receiver) Handler() rpc.Handler {
	return func(method string, payload []byte) ([]byte, error) {
		switch method {
		case MethodHello:
			return rc.handleHello(payload)
		case MethodShip:
			return rc.handleShip(payload)
		case MethodPromote:
			epoch, err := rc.Promote()
			if err != nil {
				return nil, err
			}
			w := binenc.GetWriter(16)
			w.U64(epoch)
			return w.Detach(), nil
		default:
			return nil, fmt.Errorf("repl: unknown method %q", method)
		}
	}
}

// RequestPromote is the client half of MethodPromote: it asks the standby
// served at addr to take over as primary and returns the fencing epoch the
// promoted server now serves under. budget bounds the call end to end (0 =
// the client's defaults).
func RequestPromote(client *rpc.Client, addr string, budget time.Duration) (uint64, error) {
	resp, err := client.CallBudget(addr, MethodPromote, nil, budget)
	if err != nil {
		return 0, err
	}
	r := binenc.NewReader(resp)
	epoch := r.U64()
	if err := r.Err(); err != nil {
		return 0, fmt.Errorf("repl: promote response: %w", err)
	}
	return epoch, nil
}

// fence compares a sender's epoch stamp against the standby's own term:
// lower terms are deposed primaries and refused; higher terms are adopted
// durably (the sender witnessed a failover this standby missed).
func (rc *Receiver) fence(senderEpoch uint64) error {
	own := rc.follower.Epoch()
	if senderEpoch < own {
		return fmt.Errorf("%w: ship epoch %d, standby epoch %d", rpc.ErrStaleEpoch, senderEpoch, own)
	}
	rc.mu.Lock()
	promoted := rc.promoted
	rc.mu.Unlock()
	if promoted {
		return fmt.Errorf("%w: standby promoted at epoch %d", rpc.ErrStaleEpoch, own)
	}
	if senderEpoch > own {
		if err := rc.follower.BumpEpoch(senderEpoch); err != nil {
			return err
		}
	}
	return nil
}

// handleHello answers the handshake with the standby's epoch and log tail.
func (rc *Receiver) handleHello(payload []byte) ([]byte, error) {
	r := binenc.NewReader(payload)
	senderEpoch := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("repl: hello: %w", err)
	}
	if err := rc.fence(senderEpoch); err != nil {
		return nil, err
	}
	w := binenc.GetWriter(24)
	encodeAck(w, ackMsg{Epoch: rc.follower.Epoch(), Tail: rc.follower.ReplTail()})
	return w.Detach(), nil
}

// handleShip ingests one shipped batch. Duplicates (bytes at or below the
// log tail — the sender and its pump may race) are trimmed or
// acknowledged outright. A batch starting past the tail (the standby
// restarted behind the sender's cursor) is not ingested; the ack's
// authoritative tail tells the sender where to resume catch-up.
func (rc *Receiver) handleShip(payload []byte) ([]byte, error) {
	m, err := decodeShip(payload)
	if err != nil {
		return nil, err
	}
	if err := rc.opts.Faults.At(FaultApplyDrop); err != nil {
		return nil, err
	}
	if err := rc.fence(m.Epoch); err != nil {
		return nil, err
	}
	tail := rc.follower.ReplTail()
	start, frames := m.Start, m.Frames
	end := start + wal.LSN(len(frames))
	switch {
	case end <= tail:
		// Pure duplicate: everything already ingested.
	case start > tail:
		// Gap: refuse silently; the ack's tail steers the sender back.
	default:
		if start < tail {
			frames = frames[tail-start:]
			start = tail
		}
		if err := rc.follower.ApplyShipped(start, frames); err != nil {
			return nil, err
		}
		rc.mu.Lock()
		rc.batches++
		rc.records += uint64(m.Records)
		rc.bytes += uint64(len(frames))
		rc.mu.Unlock()
		tail = rc.follower.ReplTail()
	}
	w := binenc.GetWriter(24)
	encodeAck(w, ackMsg{Epoch: rc.follower.Epoch(), Tail: tail})
	return w.Detach(), nil
}

// Promote performs the epoch-fenced takeover: the epoch is durably bumped
// past every term the deposed primary could stamp, follower mode ends, and
// OnPromote assembles the primary role. Idempotent — a retry after success
// returns the promoted epoch without re-running OnPromote; a failure (fault
// point, durable bump error, OnPromote error) leaves the promotion
// retryable.
func (rc *Receiver) Promote() (uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.promoted {
		return rc.follower.Epoch(), nil
	}
	if err := rc.opts.Faults.At(FaultPromote); err != nil {
		return 0, err
	}
	epoch := rc.follower.Epoch() + 1
	if err := rc.follower.BumpEpoch(epoch); err != nil {
		return 0, fmt.Errorf("repl: promote: %w", err)
	}
	rc.follower.Promote()
	if rc.opts.OnPromote != nil {
		if err := rc.opts.OnPromote(epoch); err != nil {
			// Epoch moved and follower mode ended, but the server role is
			// not up; the next attempt bumps the epoch again and retries.
			return 0, fmt.Errorf("repl: promote: %w", err)
		}
	}
	rc.promoted = true
	return epoch, nil
}

// Promoted reports whether this receiver has taken over as primary.
func (rc *Receiver) Promoted() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.promoted
}

// ReceiverStats is a snapshot of ingest counters.
type ReceiverStats struct {
	// Batches counts applied (non-duplicate) shipped batches.
	Batches uint64
	// Records counts records in applied batches.
	Records uint64
	// Bytes counts applied shipped bytes (after duplicate trimming).
	Bytes uint64
}

// Stats returns a snapshot of the receiver.
func (rc *Receiver) Stats() ReceiverStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ReceiverStats{Batches: rc.batches, Records: rc.records, Bytes: rc.bytes}
}
