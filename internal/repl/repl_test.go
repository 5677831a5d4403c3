package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/fault"
	"concord/internal/rpc"
	"concord/internal/wal"
)

// fakeFollower is an in-memory Follower: it tracks the log tail, counts
// applied records and implements the epoch contract, without dragging the
// repository into unit tests.
type fakeFollower struct {
	mu       sync.Mutex
	tail     wal.LSN
	epoch    uint64
	follower bool
	records  int
}

func (f *fakeFollower) ApplyShipped(start wal.LSN, frames []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.follower {
		return errors.New("fake: not a follower")
	}
	valid, records := wal.ValidFrames(frames)
	if valid != len(frames) {
		return fmt.Errorf("fake: %d/%d bytes valid", valid, len(frames))
	}
	if start != f.tail {
		return fmt.Errorf("fake: gap: tail %d, start %d", f.tail, start)
	}
	f.tail += wal.LSN(len(frames))
	f.records += records
	return nil
}

func (f *fakeFollower) ReplTail() wal.LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tail
}

func (f *fakeFollower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeFollower) BumpEpoch(e uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e < f.epoch {
		return fmt.Errorf("fake: epoch backwards (%d -> %d)", f.epoch, e)
	}
	f.epoch = e
	return nil
}

func (f *fakeFollower) Promote() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.follower = false
}

func (f *fakeFollower) appliedRecords() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.records
}

// pair is one primary log replicating to one fake standby.
type pair struct {
	log      *wal.Log
	sender   *Sender
	follower *fakeFollower
	receiver *Receiver
	faults   *fault.Registry // sender-side
	epoch    atomic.Uint64   // primary's epoch
}

func newPair(t *testing.T, opts SenderOptions) *pair {
	t.Helper()
	p := &pair{follower: &fakeFollower{follower: true}, faults: fault.New()}
	tr := rpc.NewInProc(rpc.FaultPlan{})
	t.Cleanup(func() { tr.Close() })
	p.receiver = NewReceiver(p.follower, ReceiverOptions{})
	if err := tr.Serve("standby", rpc.Dedup(p.receiver.Handler())); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(t.TempDir(), wal.Options{SyncOnAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	p.log = log
	t.Cleanup(func() { log.Close() })
	client := rpc.NewClient(tr, "primary")
	client.Retries, client.Backoff = 2, 0
	opts.Faults = p.faults
	opts.Epoch = p.epoch.Load
	if opts.RetryEvery == 0 {
		opts.RetryEvery = 2 * time.Millisecond
	}
	p.sender = NewSender(client, "standby", log, opts)
	t.Cleanup(func() { p.sender.Close() })
	log.SetShipper(p.sender)
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSyncShipReachesStandbyBeforeCommitReturns pins the synchronous
// guarantee: once Append returns, the standby holds the batch.
func TestSyncShipReachesStandbyBeforeCommitReturns(t *testing.T) {
	p := newPair(t, SenderOptions{Sync: true})
	waitFor(t, "sync mode", func() bool { return p.sender.Stats().Mode == ModeSync })
	for i := 0; i < 5; i++ {
		if _, err := p.log.Append(1, "o", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(p.follower.ReplTail()), p.log.Size(); got != want {
			t.Fatalf("append %d returned with standby at %d, primary at %d", i, got, want)
		}
	}
	if p.follower.appliedRecords() != 5 {
		t.Fatalf("standby applied %d records, want 5", p.follower.appliedRecords())
	}
	st := p.sender.Stats()
	if st.LagBytes != 0 || st.LagRecords != 0 {
		t.Fatalf("sync sender reports lag %d bytes / %d records", st.LagBytes, st.LagRecords)
	}
}

// TestDegradeToTrailingAndCatchUp arms a one-shot ship drop: the commit
// proceeds locally (availability), the sender degrades, and the pump closes
// the gap and restores sync mode.
func TestDegradeToTrailingAndCatchUp(t *testing.T) {
	p := newPair(t, SenderOptions{Sync: true})
	waitFor(t, "sync mode", func() bool { return p.sender.Stats().Mode == ModeSync })
	p.faults.ArmOnce(FaultShipDrop, errors.New("standby vanished"))
	if _, err := p.log.Append(1, "o", []byte("during-outage")); err != nil {
		t.Fatalf("commit must proceed during standby outage: %v", err)
	}
	if st := p.sender.Stats(); st.Degrades == 0 {
		t.Fatal("sender did not degrade on ship drop")
	}
	waitFor(t, "catch-up", func() bool {
		st := p.sender.Stats()
		return st.Mode == ModeSync && st.LagBytes == 0
	})
	if got, want := int64(p.follower.ReplTail()), p.log.Size(); got != want {
		t.Fatalf("standby at %d after catch-up, primary at %d", got, want)
	}
}

// TestStaleEpochFencesDeposedPrimary promotes the standby and checks the
// full fencing chain: the next ship is refused with ErrStaleEpoch, the
// sender latches deposed, and the primary's WAL fail-stops so no further
// commit can be acknowledged.
func TestStaleEpochFencesDeposedPrimary(t *testing.T) {
	p := newPair(t, SenderOptions{Sync: true})
	waitFor(t, "sync mode", func() bool { return p.sender.Stats().Mode == ModeSync })
	if _, err := p.log.Append(1, "o", []byte("before")); err != nil {
		t.Fatal(err)
	}
	epoch, err := p.receiver.Promote()
	if err != nil || epoch != 1 {
		t.Fatalf("promote: epoch %d, err %v", epoch, err)
	}
	_, err = p.log.Append(1, "o", []byte("split-brain"))
	if !errors.Is(err, rpc.ErrStaleEpoch) {
		t.Fatalf("deposed primary's commit succeeded: %v", err)
	}
	if p.sender.Stats().Mode != ModeDeposed {
		t.Fatalf("sender mode = %v, want deposed", p.sender.Stats().Mode)
	}
	if _, err := p.log.Append(1, "o", []byte("again")); err == nil {
		t.Fatal("WAL accepted an append after the fencing failure")
	}
	if got := p.follower.appliedRecords(); got != 1 {
		t.Fatalf("standby applied %d records, want only the pre-promotion one", got)
	}
}

// TestAsyncBoundedLag runs an asynchronous sender whose standby refuses
// applies for a while: lag accumulates, and once the standby recovers the
// pump drains it without any commit having blocked on an acknowledgement.
func TestAsyncBoundedLag(t *testing.T) {
	p := newPair(t, SenderOptions{Sync: false, LagMax: 1 << 20})
	waitFor(t, "handshake", func() bool { return p.sender.Stats().LagBytes == 0 })
	for i := 0; i < 10; i++ {
		if _, err := p.log.Append(1, "o", []byte("async")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "async drain", func() bool { return p.sender.Stats().LagBytes == 0 })
	if got, want := int64(p.follower.ReplTail()), p.log.Size(); got != want {
		t.Fatalf("standby at %d, primary at %d", got, want)
	}
	if p.sender.Stats().Mode != ModeTrailing {
		t.Fatalf("async sender mode = %v, want trailing", p.sender.Stats().Mode)
	}
}

// TestPromoteIdempotentAndRetryable checks the promotion contract: a faulted
// attempt changes nothing and is retryable; success runs OnPromote exactly
// once; repeats return the promoted epoch without side effects.
func TestPromoteIdempotentAndRetryable(t *testing.T) {
	fol := &fakeFollower{follower: true}
	faults := fault.New()
	var assembled atomic.Int64
	rec := NewReceiver(fol, ReceiverOptions{
		Faults:    faults,
		OnPromote: func(epoch uint64) error { assembled.Add(1); return nil },
	})
	faults.ArmOnce(FaultPromote, errors.New("crash before takeover"))
	if _, err := rec.Promote(); err == nil {
		t.Fatal("faulted promotion succeeded")
	}
	if fol.Epoch() != 0 || assembled.Load() != 0 {
		t.Fatal("faulted promotion left side effects")
	}
	epoch, err := rec.Promote()
	if err != nil || epoch != 1 {
		t.Fatalf("promote retry: epoch %d, err %v", epoch, err)
	}
	if fol.follower {
		t.Fatal("follower mode survived promotion")
	}
	epoch2, err := rec.Promote()
	if err != nil || epoch2 != 1 {
		t.Fatalf("repeat promote: epoch %d, err %v", epoch2, err)
	}
	if assembled.Load() != 1 {
		t.Fatalf("OnPromote ran %d times, want 1", assembled.Load())
	}
}

// TestSenderSurvivesStandbyRestartGap simulates a standby that lost its
// in-memory state (new receiver, same address): the sender's ship hits a
// gap, re-handshakes and re-ships from the standby's actual tail.
func TestSenderSurvivesStandbyRestartGap(t *testing.T) {
	p := newPair(t, SenderOptions{Sync: true})
	waitFor(t, "sync mode", func() bool { return p.sender.Stats().Mode == ModeSync })
	if _, err := p.log.Append(1, "o", []byte("first")); err != nil {
		t.Fatal(err)
	}
	// "Restart" the standby empty: its tail regresses to zero. The next
	// ship is refused with an authoritative tail of 0; the sender adopts
	// it, degrades, and the pump re-ships everything.
	p.follower.mu.Lock()
	p.follower.tail, p.follower.records = 0, 0
	p.follower.mu.Unlock()
	if _, err := p.log.Append(1, "o", []byte("after-restart")); err != nil {
		t.Fatalf("commit must survive a standby restart: %v", err)
	}
	waitFor(t, "re-sync after standby restart", func() bool {
		st := p.sender.Stats()
		return st.Mode == ModeSync && st.LagBytes == 0 && int64(p.follower.ReplTail()) == p.log.Size()
	})
	if p.follower.appliedRecords() != 2 {
		t.Fatalf("standby replayed %d records after restart, want 2", p.follower.appliedRecords())
	}
}
