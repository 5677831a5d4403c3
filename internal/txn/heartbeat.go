package txn

import (
	"errors"
	"sort"
	"time"

	"concord/internal/rpc"
)

// Workstation half of the lease lifecycle: a heartbeat goroutine renews the
// session the workstation's Begin-of-DOP calls opened. A heartbeat answered
// with ErrNoLease means the server forgot us — it restarted (leases are
// volatile) or the reaper reclaimed an expired lease — and the loop reacts by
// Rejoining with the DOPs currently registered, restoring the session without
// designer intervention.

// DefaultHeartbeatDivisor derives the heartbeat period from the server's
// lease TTL when the caller does not choose one: TTL/4 survives two lost
// heartbeats and a retry before the lease expires.
const DefaultHeartbeatDivisor = 4

// StartHeartbeat launches the lease-renewal goroutine, sending a heartbeat
// every `every`. Idempotent while running; StopHeartbeat ends it. Heartbeats
// ride the deadline-propagating call path with a budget of one period — a
// renewal that cannot make it in time is worthless, so it must not occupy the
// wire longer than that.
func (tm *ClientTM) StartHeartbeat(every time.Duration) {
	if every <= 0 {
		every = DefaultLeaseTTL / DefaultHeartbeatDivisor
	}
	tm.mu.Lock()
	if tm.hbStop != nil {
		tm.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	tm.hbStop, tm.hbDone = stop, done
	tm.mu.Unlock()
	go tm.heartbeatLoop(every, stop, done)
}

// StopHeartbeat signals the heartbeat goroutine and waits for it to exit.
func (tm *ClientTM) StopHeartbeat() {
	stop, done := tm.signalHeartbeatStop()
	if stop {
		<-done
	}
}

// signalHeartbeatStop closes the stop channel without waiting (Crash must
// not block on an in-flight heartbeat call). Returns whether a loop was
// running and its done channel.
func (tm *ClientTM) signalHeartbeatStop() (bool, chan struct{}) {
	tm.mu.Lock()
	stop, done := tm.hbStop, tm.hbDone
	tm.hbStop, tm.hbDone = nil, nil
	tm.mu.Unlock()
	if stop == nil {
		return false, nil
	}
	close(stop)
	return true, done
}

func (tm *ClientTM) heartbeatLoop(every time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		err := tm.heartbeat(every)
		switch {
		case err == nil:
		case errors.Is(err, ErrNoLease):
			tm.Rejoin() //nolint:errcheck // best-effort; retried next tick
		case errors.Is(err, rpc.ErrStaleEpoch):
			// The server we heartbeat is on an older fencing term than one
			// this workstation has witnessed: a deposed primary. Move over.
			tm.Failover() //nolint:errcheck // best-effort; retried next tick
		case !errors.Is(err, rpc.ErrRemote):
			// No answer inside a whole budgeted (internally retried) call:
			// the primary is unreachable. Promote the standby and take over;
			// without one the error is transient and the next tick retries.
			tm.Failover() //nolint:errcheck // best-effort; retried next tick
		}
	}
}

// heartbeat sends one lease renewal with a tight per-call budget.
func (tm *ClientTM) heartbeat(budget time.Duration) error {
	_, err := tm.client.CallBudget(tm.server(), MethodHeartbeat, []byte(tm.id), budget)
	return err
}

// Rejoin re-establishes the workstation's lease and re-registers every DOP
// this client-TM holds (recovered ones included) with the server, each with
// its derivation locks (DOP.reacquire): a server that forgot the workstation
// restarted, reaped it or was promoted, and holds none of them. Safe to call
// at any time — Begin and the derivation locks are idempotent server-side.
func (tm *ClientTM) Rejoin() error {
	tm.mu.Lock()
	dops := make([]*DOP, 0, len(tm.dops))
	for _, d := range tm.dops {
		dops = append(dops, d)
	}
	tm.mu.Unlock()
	sort.Slice(dops, func(i, j int) bool { return dops[i].id < dops[j].id })
	m := rejoinMsg{WS: tm.id, DOPs: make([]dopPair, len(dops))}
	for i, d := range dops {
		m.DOPs[i] = dopPair{DOP: d.id, DA: d.da}
	}
	if _, err := tm.client.Call(tm.server(), MethodRejoin, m.encode()); err != nil {
		return err
	}
	var errs []error
	for _, d := range dops {
		errs = append(errs, d.reacquire())
	}
	return errors.Join(errs...)
}

// ServerHealth asks the server for its degradation mode: Mode is "ok",
// "degraded" (read-only: checkouts serve, mutations refused with
// repo.ErrDegraded) or "failstop", with the latched cause alongside.
func (tm *ClientTM) ServerHealth() (mode, cause string, err error) {
	h, err := tm.ServerHealthFull()
	if err != nil {
		return "", "", err
	}
	return h.Mode, h.Cause, nil
}

// ServerHealthInfo is the full MethodHealth answer: the server's degradation
// mode ("ok", "degraded" or "failstop") with the latched cause, plus its
// replication role, fencing epoch and shipping lag.
type ServerHealthInfo struct {
	Mode, Cause string
	// Role is "primary", "standby" or "promoting" ("primary" when the
	// server runs unreplicated).
	Role string
	// Epoch is the fencing term the server serves under.
	Epoch uint64
	// LagRecords / LagBytes measure how far its standby trails (as seen from
	// a primary's sender; zero on a standby and in sync steady state).
	LagRecords, LagBytes uint64
}

// ServerHealthFull asks the server for its full health record and adopts its
// fencing epoch (the stamp that fences a later deposed primary off).
func (tm *ClientTM) ServerHealthFull() (ServerHealthInfo, error) {
	resp, err := tm.client.Call(tm.server(), MethodHealth, nil)
	if err != nil {
		return ServerHealthInfo{}, err
	}
	h, err := decodeHealth(resp)
	if err != nil {
		return ServerHealthInfo{}, err
	}
	tm.noteEpoch(h.Epoch)
	return h, nil
}
