package repl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"concord/internal/binenc"
	"concord/internal/fault"
	"concord/internal/rpc"
	"concord/internal/wal"
)

// Mode is a Sender's replication mode.
type Mode uint8

// Sender modes.
const (
	// ModeSync ships every batch inline on the commit path: group-commit
	// waiters are not released until the standby acknowledged.
	ModeSync Mode = iota + 1
	// ModeTrailing ships in the background: commits proceed locally while
	// the pump catches the standby up. Synchronous configurations return to
	// ModeSync once the gap closes; asynchronous ones live here.
	ModeTrailing
	// ModeDeposed is terminal: the standby (or its successor) has a higher
	// replication epoch, so this node lost a failover it has not witnessed.
	// Every subsequent Ship returns rpc.ErrStaleEpoch, fail-stopping the
	// local WAL before a split-brain write can be acknowledged.
	ModeDeposed
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeTrailing:
		return "trailing"
	case ModeDeposed:
		return "deposed"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// catchUpChunkBytes bounds one catch-up read of the log.
const catchUpChunkBytes = 256 << 10

// SenderOptions configures a Sender.
type SenderOptions struct {
	// Sync selects synchronous replication: commits wait for the standby's
	// acknowledgement (degrading to trailing when it is unreachable).
	Sync bool
	// LagMax bounds the trailing lag window in bytes: once the standby is
	// further behind, contiguous batches ship inline on the commit path
	// until the lag drains. 0 means unbounded.
	LagMax int64
	// RetryEvery paces the background pump's catch-up and reconnect
	// attempts (default 20ms).
	RetryEvery time.Duration
	// Epoch supplies the primary's current replication epoch, stamped on
	// every batch. Nil means epoch 0.
	Epoch func() uint64
	// Faults is the registry traversed at FaultShipDrop (nil-safe).
	Faults *fault.Registry
}

// Sender is the primary half of WAL shipping: it implements wal.Shipper for
// the repository log and pushes its batches to the
// standby's Receiver.
type Sender struct {
	client *rpc.Client
	addr   string
	opts   SenderOptions
	log    *wal.Log

	// sendMu serializes sends: the commit path and the pump may both ship,
	// and it keeps their batches ordered. It is never held while reading the
	// log (wal.ReadRaw briefly takes the log's write slot, which the commit
	// path holds while shipping — holding sendMu across a read would
	// deadlock the two).
	sendMu sync.Mutex

	mu        sync.Mutex
	mode      Mode
	needHello bool
	compacted bool
	acked     wal.LSN
	recsIn    uint64 // records appended locally (Ship calls)
	recsOut   uint64 // records acknowledged by the standby
	batches   uint64
	bytesOut  uint64
	degrades  uint64

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewSender starts a sender replicating log to the Receiver served at addr
// through client; install it on log with SetShipper. It begins in trailing
// mode; the background pump performs the hello handshake, catches the
// standby up and — for synchronous configurations — flips to ModeSync once
// the standby is level.
func NewSender(client *rpc.Client, addr string, log *wal.Log, opts SenderOptions) *Sender {
	if opts.RetryEvery <= 0 {
		opts.RetryEvery = 20 * time.Millisecond
	}
	s := &Sender{
		client:    client,
		addr:      addr,
		opts:      opts,
		log:       log,
		mode:      ModeTrailing,
		needHello: true,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go s.run()
	s.kickPump()
	return s
}

// Close stops the background pump. An installed Sender keeps functioning in
// degraded form (every batch trails and nothing drains it), so detach it
// (SetShipper(nil)) or close the log first.
func (s *Sender) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// SenderStats is a snapshot of the sender for health reporting and tests.
type SenderStats struct {
	// Mode is the current replication mode.
	Mode Mode
	// SyncConfigured reports whether the sender aims for ModeSync.
	SyncConfigured bool
	// LagBytes is how many durable bytes the standby is behind.
	LagBytes int64
	// LagRecords is how many records the standby is behind (approximate
	// across restarts).
	LagRecords int64
	// Batches counts acknowledged shipments.
	Batches uint64
	// BytesShipped counts acknowledged shipped bytes.
	BytesShipped uint64
	// Degrades counts sync→trailing transitions.
	Degrades uint64
	// Compacted reports that catch-up is impossible because the primary
	// reclaimed log bytes the standby still needs (full reseed required).
	Compacted bool
}

// Stats returns a snapshot of the sender.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	st := SenderStats{
		Mode:           s.mode,
		SyncConfigured: s.opts.Sync,
		Batches:        s.batches,
		BytesShipped:   s.bytesOut,
		Degrades:       s.degrades,
		Compacted:      s.compacted,
	}
	if s.recsIn > s.recsOut {
		st.LagRecords = int64(s.recsIn - s.recsOut)
	}
	s.mu.Unlock()
	st.LagBytes = s.lagBytes()
	return st
}

// Ship implements wal.Shipper: inline send in sync mode (and for contiguous
// batches past the lag bound), otherwise hand off to the pump. It is called
// on the commit path holding the log's write slot, so it must never wait on
// the pump (which needs that slot to read the log).
func (s *Sender) Ship(start wal.LSN, frames []byte, records int) error {
	s.mu.Lock()
	if s.mode == ModeDeposed {
		s.mu.Unlock()
		return rpc.ErrStaleEpoch
	}
	s.recsIn += uint64(records)
	if err := s.opts.Faults.At(FaultShipDrop); err != nil {
		s.degradeLocked()
		s.mu.Unlock()
		s.kickPump()
		return nil
	}
	inline := s.mode == ModeSync && !s.needHello
	contiguous := s.acked == start
	s.mu.Unlock()
	if !inline && contiguous && s.opts.LagMax > 0 && s.lagBytes() > s.opts.LagMax {
		// Bounded async lag: the standby is reachable enough to have acked
		// up to this batch's start, but too far behind — ship inline until
		// the window drains.
		inline = true
	}
	if !inline {
		s.kickPump()
		return nil
	}
	err := s.send(start, frames, records)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, rpc.ErrStaleEpoch):
		return rpc.ErrStaleEpoch
	default:
		s.mu.Lock()
		s.degradeLocked()
		s.mu.Unlock()
		s.kickPump()
		return nil
	}
}

// lagBytes is how many durable bytes the standby has not acknowledged.
func (s *Sender) lagBytes() int64 {
	s.mu.Lock()
	acked := s.acked
	s.mu.Unlock()
	return max(s.log.Size()-int64(acked), 0)
}

// degradeLocked drops sync mode to trailing. Caller holds s.mu.
func (s *Sender) degradeLocked() {
	if s.mode == ModeSync {
		s.mode = ModeTrailing
		s.degrades++
	}
}

// depose latches the terminal deposed mode.
func (s *Sender) depose() {
	s.mu.Lock()
	if s.mode != ModeDeposed {
		s.mode = ModeDeposed
	}
	s.mu.Unlock()
}

// kickPump nudges the background pump without blocking.
func (s *Sender) kickPump() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// send transmits one batch and processes the acknowledgement. Batches
// already acknowledged (races between the commit path and the pump) are
// trimmed or skipped; a batch starting past the acknowledged tail is a gap
// the pump must fill first.
func (s *Sender) send(start wal.LSN, frames []byte, records int) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	acked := s.acked
	deposed := s.mode == ModeDeposed
	s.mu.Unlock()
	if deposed {
		return rpc.ErrStaleEpoch
	}
	end := start + wal.LSN(len(frames))
	if end <= acked {
		return nil // the pump already shipped these bytes
	}
	if start < acked {
		// LSNs are byte offsets, so the already-acknowledged prefix can be
		// trimmed without reframing; recount the records that remain.
		frames = frames[acked-start:]
		start = acked
		_, records = wal.ValidFrames(frames)
	}
	if start > acked {
		return fmt.Errorf("repl: send gap: acked %d, batch starts %d", acked, start)
	}
	var epoch uint64
	if s.opts.Epoch != nil {
		epoch = s.opts.Epoch()
	}
	w := binenc.GetWriter(40 + len(frames))
	encodeShip(w, shipMsg{Epoch: epoch, Start: start, Records: uint32(records), Frames: frames})
	resp, err := s.client.Call(s.addr, MethodShip, w.Bytes())
	w.Free()
	if err != nil {
		if errors.Is(err, rpc.ErrStaleEpoch) {
			s.depose()
			return rpc.ErrStaleEpoch
		}
		return err
	}
	ack, err := decodeAck(resp)
	if err != nil {
		return err
	}
	if ack.Epoch > epoch {
		s.depose()
		return rpc.ErrStaleEpoch
	}
	s.mu.Lock()
	// The ack's tail is authoritative in both directions: forward when the
	// pump raced ahead, backward when the standby restarted behind our
	// cursor and refused the batch.
	s.acked = ack.Tail
	if ack.Tail >= end {
		s.recsOut += uint64(records)
		s.batches++
		s.bytesOut += uint64(len(frames))
	}
	s.mu.Unlock()
	if ack.Tail < end {
		return fmt.Errorf("repl: standby behind (tail %d, batch ended %d)", ack.Tail, end)
	}
	return nil
}

// run is the background pump: it performs the hello handshake, drains the
// catch-up backlog, and flips trailing → sync when configured and level.
func (s *Sender) run() {
	defer close(s.done)
	t := time.NewTicker(s.opts.RetryEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		case <-t.C:
		}
		s.tick()
		s.mu.Lock()
		deposed := s.mode == ModeDeposed
		s.mu.Unlock()
		if deposed {
			return
		}
	}
}

// tick is one pump round.
func (s *Sender) tick() {
	s.mu.Lock()
	if s.mode == ModeDeposed {
		s.mu.Unlock()
		return
	}
	needHello := s.needHello
	s.mu.Unlock()
	if needHello && !s.hello() {
		return
	}
	if !s.catchUp() {
		return
	}
	s.mu.Lock()
	if s.mode == ModeTrailing && s.opts.Sync && !s.compacted {
		s.mode = ModeSync
	}
	s.mu.Unlock()
}

// hello performs the handshake, adopting the receiver's tail as the catch-up
// cursor. A receiver on a higher epoch deposes this sender.
func (s *Sender) hello() bool {
	var epoch uint64
	if s.opts.Epoch != nil {
		epoch = s.opts.Epoch()
	}
	w := binenc.GetWriter(16)
	w.U64(epoch)
	resp, err := s.client.Call(s.addr, MethodHello, w.Bytes())
	w.Free()
	if err != nil {
		if errors.Is(err, rpc.ErrStaleEpoch) {
			s.depose()
		}
		return false
	}
	h, err := decodeAck(resp)
	if err != nil {
		return false
	}
	if h.Epoch > epoch {
		s.depose()
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compacted = false
	if int64(h.Tail) > s.log.Size() {
		// The standby holds bytes this log never wrote: divergent histories
		// (it belongs to a different lineage). Catch-up cannot reconcile
		// that; a full reseed is required.
		s.compacted = true
	} else {
		s.acked = h.Tail
	}
	s.needHello = false
	return true
}

// catchUp drains the backlog, returning true when the standby is level with
// the log's durable tail.
func (s *Sender) catchUp() bool {
	for {
		s.mu.Lock()
		acked := s.acked
		compacted := s.compacted
		s.mu.Unlock()
		if compacted {
			return false
		}
		if int64(acked) >= s.log.Size() {
			return true
		}
		buf, records, err := s.log.ReadRaw(acked, catchUpChunkBytes)
		if errors.Is(err, wal.ErrCompacted) {
			s.mu.Lock()
			s.compacted = true
			s.mu.Unlock()
			return false
		}
		if err != nil {
			return false
		}
		if len(buf) == 0 {
			return true // durable tail reached (reservations may be in flight)
		}
		if err := s.send(acked, buf, records); err != nil {
			return false
		}
	}
}
