package txn

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"concord/internal/binenc"
)

// Workstation failure lifecycle (DESIGN.md §5.3). A workstation's first
// Begin-of-DOP opens a lease-based session with the server-TM; a heartbeat
// goroutine on the client-TM renews it. When a workstation falls silent for
// LeaseTTL (crash, partition, power-off — indistinguishable from here), the
// server-side reaper reclaims its *volatile* footprint: staged-but-unprepared
// checkin branches are presumed-abort discarded, derivation and short locks
// of its DOPs are bulk-released (queued waiters evicted, blocked designers
// promoted), and its cache-callback registrations are dropped so the notifier
// stops burning retries on a dead endpoint.
//
// Durable long-transaction state deliberately survives: persisted DOP
// contexts (client log), checked-out DOV history, scope grants, and —
// critically — *prepared* checkin branches. A prepared branch may correspond
// to a durable commit decision in the dead workstation's client log, and
// ServerTM.Commit treats an unknown transaction as already-committed, so
// reaping it would silently lose a committed checkin. Prepared branches stay
// pinned until the recovered coordinator resolves them.
//
// A recovered workstation calls Rejoin with the DOPs restored from its log:
// the lease is re-established and the registrations re-created (Begin is
// idempotent), after which processing resumes at the last recovery point.

// Lease/health RPC methods (served by the server-TM alongside the DOP
// protocol).
const (
	// MethodHeartbeat renews a workstation lease; payload is the raw
	// workstation ID. Answers ErrNoLease when the server holds no lease —
	// the cue for the client to Rejoin.
	MethodHeartbeat = "tm/heartbeat"
	// MethodRejoin re-establishes a lease and re-registers recovered DOPs
	// after a workstation restart or a reaped lease.
	MethodRejoin = "tm/rejoin"
	// MethodHealth reports the server's degradation mode (repo.Health) so
	// workstations and operators can distinguish read-only degradation from
	// full fail-stop.
	MethodHealth = "tm/health"
)

// ErrNoLease reports an operation under an expired or never-established
// workstation lease. Clients react by re-joining, not by retrying.
var ErrNoLease = errors.New("txn: no lease for workstation")

// Fault points of the lease lifecycle.
const (
	// FaultLeaseExpired fires at the start of every reaper pass; arming it
	// makes the pass skip (a delayed reaper), widening the window in which
	// an expired workstation's locks are still held.
	FaultLeaseExpired = "txn:lease-expired"
	// FaultHeartbeatDrop fires on every heartbeat; arming it refuses the
	// renewal, simulating heartbeat loss without a real partition.
	FaultHeartbeatDrop = "txn:heartbeat-drop"
)

// DefaultLeaseTTL is the lease lifetime when ServerTM.LeaseTTL is unset.
// Workstations heartbeat at a fraction of this (core defaults to TTL/4).
const DefaultLeaseTTL = 10 * time.Second

// wsLease is one workstation's session: its expiry and the DOPs opened under
// it (the reclamation unit when it expires).
type wsLease struct {
	expires time.Time
	dops    map[string]bool
}

// touchLease creates or renews the lease of ws and, when dop is non-empty,
// records the DOP under it.
func (s *ServerTM) touchLease(ws, dop string) {
	if ws == "" {
		return
	}
	ttl := s.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l, ok := s.leases[ws]
	if !ok {
		l = &wsLease{dops: make(map[string]bool)}
		s.leases[ws] = l
	}
	l.expires = time.Now().Add(ttl)
	if dop != "" {
		l.dops[dop] = true
	}
}

// Heartbeat renews the lease of ws. ErrNoLease (a registered wire sentinel)
// tells the workstation the server no longer knows it — it must Rejoin.
func (s *ServerTM) Heartbeat(ws string) error {
	if err := s.Faults.At(FaultHeartbeatDrop); err != nil {
		return err
	}
	if ws == "" {
		return fmt.Errorf("%w: empty workstation ID", ErrNoLease)
	}
	ttl := s.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l, ok := s.leases[ws]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoLease, ws)
	}
	l.expires = time.Now().Add(ttl)
	return nil
}

// Rejoin re-establishes the lease of a recovered workstation and re-registers
// the DOPs it restored from its recovery log (Begin is idempotent, so a
// Rejoin racing a never-expired lease is harmless).
func (s *ServerTM) Rejoin(m rejoinMsg) error {
	if m.WS == "" {
		return fmt.Errorf("%w: rejoin without workstation ID", ErrNoLease)
	}
	s.touchLease(m.WS, "")
	for _, p := range m.DOPs {
		if err := s.beginWS(p.DOP, p.DA, m.WS); err != nil {
			return err
		}
	}
	return nil
}

// HasLease reports whether ws currently holds a lease (diagnostics, tests).
func (s *ServerTM) HasLease(ws string) bool {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	_, ok := s.leases[ws]
	return ok
}

// dropDOPFromLease forgets a DOP's lease membership (End-of-DOP).
func (s *ServerTM) dropDOPFromLease(ws, dop string) {
	if ws == "" {
		return
	}
	s.leaseMu.Lock()
	if l, ok := s.leases[ws]; ok {
		delete(l.dops, dop)
	}
	s.leaseMu.Unlock()
}

// StartLeaseReaper launches the background reaper, expiring silent leases
// every LeaseTTL/4. Idempotent; StopLeaseReaper (or nothing at all — tests
// may drive ReapExpiredLeases directly) shuts it down.
func (s *ServerTM) StartLeaseReaper() {
	s.leaseMu.Lock()
	if s.reapStop != nil {
		s.leaseMu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.reapStop, s.reapDone = stop, done
	s.leaseMu.Unlock()
	ttl := s.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	go func() {
		defer close(done)
		t := time.NewTicker(ttl / 4)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.ReapExpiredLeases()
			}
		}
	}()
}

// StopLeaseReaper stops the background reaper and waits for it to exit.
func (s *ServerTM) StopLeaseReaper() {
	s.leaseMu.Lock()
	stop, done := s.reapStop, s.reapDone
	s.reapStop, s.reapDone = nil, nil
	s.leaseMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ReapExpiredLeases runs one reaper pass synchronously and returns the number
// of workstations reclaimed. Exported so tests and scenarios can force expiry
// handling deterministically instead of sleeping through reaper ticks.
func (s *ServerTM) ReapExpiredLeases() int {
	if err := s.Faults.At(FaultLeaseExpired); err != nil {
		return 0 // simulated reaper delay: skip the pass
	}
	now := time.Now()
	type victim struct {
		ws   string
		dops []string
	}
	var victims []victim
	s.leaseMu.Lock()
	for ws, l := range s.leases {
		if now.After(l.expires) {
			v := victim{ws: ws, dops: make([]string, 0, len(l.dops))}
			for dop := range l.dops {
				v.dops = append(v.dops, dop)
			}
			sort.Strings(v.dops)
			victims = append(victims, v)
			delete(s.leases, ws)
		}
	}
	s.leaseMu.Unlock()
	for _, v := range victims {
		s.reapWorkstation(v.ws, v.dops)
	}
	return len(victims)
}

// reapWorkstation reclaims the volatile footprint of a dead workstation:
// presumed-abort of its unprepared staged branches, bulk lock release with
// waiter eviction per DOP, DOP deregistration, and cache-callback removal.
// Prepared branches are pinned (see the package comment above).
func (s *ServerTM) reapWorkstation(ws string, dops []string) {
	dopSet := make(map[string]bool, len(dops))
	for _, d := range dops {
		dopSet[d] = true
	}
	// Presumed abort: unprepared staged branches vanish with their owner.
	// Their stage records are durable only from Prepare on, but the persist
	// happens just before the promise, so delete defensively.
	var orphaned []string
	for i := range s.staged {
		sh := &s.staged[i]
		sh.mu.Lock()
		for txid, sc := range sh.m {
			if dopSet[sc.dop] && !sc.prepared {
				delete(sh.m, txid)
				orphaned = append(orphaned, txid)
			}
		}
		sh.mu.Unlock()
	}
	for _, txid := range orphaned {
		s.repo.DeleteMeta(stagedMetaPrefix + txid) //nolint:errcheck // cleanup
	}
	for _, dop := range dops {
		sh := s.dopShard(dop)
		sh.mu.Lock()
		delete(sh.m, dop)
		sh.mu.Unlock()
		// ReleaseOwner (not ReleaseAll): a handler goroutine of the dead
		// workstation may still be queued on a lock; eviction unblocks it
		// and promotes live waiters.
		s.locks.ReleaseOwner(dop)
	}
	s.cdir.dropWS(ws)
}

// HealthInfo reports the repository degradation mode plus the replication
// role (MethodHealth backend). Without a repl reporter the server presents as
// a standalone primary at epoch 0.
func (s *ServerTM) HealthInfo() ServerHealthInfo {
	h := s.repo.Health()
	out := ServerHealthInfo{Mode: h.Mode, Cause: h.Cause, Role: "primary"}
	if f := s.replInfo.Load(); f != nil {
		out.Role, out.Epoch, out.LagRecords, out.LagBytes = (*f)()
	}
	return out
}

// SetReplInfo installs the replication reporter consulted by MethodHealth:
// the server's role ("primary", "standby" or "promoting"), its fencing epoch,
// and the shipping lag in records and bytes. core wires it to the repl
// sender (primary) or receiver (standby); nil keeps the standalone default.
func (s *ServerTM) SetReplInfo(f func() (role string, epoch, lagRecords, lagBytes uint64)) {
	if f == nil {
		s.replInfo.Store(nil)
		return
	}
	s.replInfo.Store(&f)
}

// EncodeHealthInfo encodes a MethodHealth answer from the given record.
// Standby sites use it to answer health probes before a full server-TM
// exists at their address.
func EncodeHealthInfo(h ServerHealthInfo) []byte { return h.encode() }

// dopPair names one DOP registration a rejoining workstation restores.
type dopPair struct {
	DOP string
	DA  string
}

// rejoinMsg re-establishes a workstation session after restart or reap.
type rejoinMsg struct {
	WS   string
	DOPs []dopPair
}

func (m rejoinMsg) encode() []byte {
	w := binenc.NewWriter(32 + 32*len(m.DOPs))
	w.Str(m.WS)
	w.U64(uint64(len(m.DOPs)))
	for _, p := range m.DOPs {
		w.Str(p.DOP)
		w.Str(p.DA)
	}
	return w.Bytes()
}

func decodeRejoin(data []byte) (rejoinMsg, error) {
	r := binenc.NewReader(data)
	m := rejoinMsg{WS: r.Str()}
	n := r.U64()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		m.DOPs = append(m.DOPs, dopPair{DOP: r.Str(), DA: r.Str()})
	}
	return m, wireErr(r)
}

// encode writes the MethodHealth answer (wire rev 4 added role, epoch and
// lag).
func (h ServerHealthInfo) encode() []byte {
	w := binenc.NewWriter(64 + len(h.Cause))
	w.Str(h.Mode)
	w.Str(h.Cause)
	w.Str(h.Role)
	w.U64(h.Epoch)
	w.U64(h.LagRecords)
	w.U64(h.LagBytes)
	return w.Bytes()
}

func decodeHealth(data []byte) (ServerHealthInfo, error) {
	r := binenc.NewReader(data)
	m := ServerHealthInfo{Mode: r.Str(), Cause: r.Str(), Role: r.Str()}
	m.Epoch = r.U64()
	m.LagRecords = r.U64()
	m.LagBytes = r.U64()
	return m, wireErr(r)
}
