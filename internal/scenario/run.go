package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/sim"
	"concord/internal/version"
	"concord/internal/vlsi"
	"concord/internal/wal"
)

// runState is the driver's shared bookkeeping: the newest committed version
// per design area, the ledger of every durably committed checkin (the
// no-lost-committed oracle replays it against the recovered repository), the
// growing DA pool and the monotonic DOP-ID counter. Explicit DOP IDs keep
// identifiers unique across workstation restarts (a fresh ClientTM restarts
// its auto-ID sequence).
type runState struct {
	mu      sync.Mutex
	last    map[string]version.ID
	ledger  []version.ID
	das     []string
	rootDAs []string
	dopSeq  int
	subSeq  int
	stSeq   int
	failed  int
}

func newRunState() *runState {
	return &runState{last: make(map[string]version.ID)}
}

func (st *runState) nextDOPID() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dopSeq++
	return fmt.Sprintf("sc-dop-%05d", st.dopSeq)
}

func (st *runState) lastOf(da string) version.ID {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.last[da]
}

// recordCommit must run immediately after a successful Checkin: at that
// moment the version is durably committed on the server regardless of what
// happens to the DOP afterwards.
func (st *runState) recordCommit(da string, id version.ID) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.last[da] = id
	st.ledger = append(st.ledger, id)
}

func (st *runState) addDA(da string, root bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.das = append(st.das, da)
	if root {
		st.rootDAs = append(st.rootDAs, da)
	}
}

func (st *runState) pickDA(rng *rand.Rand) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.das[rng.Intn(len(st.das))]
}

func (st *runState) newSubDA() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.subSeq++
	return fmt.Sprintf("sub%03d", st.subSeq)
}

func (st *runState) tolerated() {
	st.mu.Lock()
	st.failed++
	st.mu.Unlock()
}

// payload builds a distinct floorplan object so every checkin changes the
// repository digest.
func payload(da, dopID string) *catalog.Object {
	return catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str(da+"/"+dopID)).
		Set("area", catalog.Float(float64(100+len(dopID)%7)))
}

// Run executes one scenario entry end to end: deploy the topology, warm it
// up, arm the fault, drive the workload (tolerating operation failures while
// the fault is live), disarm, prove liveness with mandatory recovery
// checkins, and then run the full oracle suite. Fault-point coverage is
// folded into the process-wide report even when the entry fails.
func Run(t *testing.T, sc Scenario) {
	t.Helper()
	reg := fault.New()
	defer recordCoverage(reg)
	if sc.Topo.Workstations <= 0 || sc.Topo.DesignAreas <= 0 || sc.Load.Ops <= 0 {
		t.Fatalf("scenario %s: topology and workload must be non-zero", sc.Name)
	}
	var rs *replState
	if sc.Fault.KillPrimary || sc.Fault.SplitBrain || sc.Fault.CrashStandby {
		if !sc.Topo.Replicated || sc.Topo.Transport != InProc {
			t.Fatalf("scenario %s: replication faults need an in-process replicated topology", sc.Name)
		}
		rs = &replState{}
	}

	var s site
	var err error
	dir := t.TempDir()
	switch sc.Topo.Transport {
	case TCP:
		s, err = newTCPSite(dir, sc.Topo, reg)
	default:
		s, err = newInProcSite(dir, sc.Topo, reg)
	}
	if err != nil {
		t.Fatalf("deploy %s: %v", sc.Topo.Transport, err)
	}
	defer s.close()
	st := newRunState()

	// Phase A — warm-up: create the design areas and give each a committed
	// root version; nothing is armed yet, so failures are fatal.
	for i := 0; i < sc.Topo.DesignAreas; i++ {
		da := fmt.Sprintf("da%02d", i)
		if err := s.newDA(da); err != nil {
			t.Fatalf("create DA %s: %v", da, err)
		}
		st.addDA(da, true)
		if err := doCheckin(s, st, 0, da); err != nil {
			t.Fatalf("root checkin %s: %v", da, err)
		}
	}
	if !sc.Topo.ColdCache {
		for ws := 0; ws < sc.Topo.Workstations; ws++ {
			for _, da := range st.rootDAs {
				if err := doCheckout(s, st, ws, da); err != nil {
					t.Fatalf("cache warm-up ws%d %s: %v", ws, da, err)
				}
			}
		}
	}

	// Phase B — arm the fault and drive the workload.
	if sc.Fault.VanishMid2PC {
		sc.Fault.VanishWS = true
	}
	if sc.Fault.DropCallbacks {
		reg.Arm(rpc.FaultNotifyDrop, nil)
	}
	if sc.Fault.DiskFull {
		reg.ArmAfter(wal.FaultAppendSync, sc.Fault.Skip, nil)
	}
	if sc.Fault.Point != "" {
		reg.ArmAfter(sc.Fault.Point, sc.Fault.Skip, nil)
	}
	stopRacer := func() {}
	if sc.Fault.RaceCheckpoint {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.checkpoint() // armed checkpoint points fire here
				time.Sleep(time.Millisecond)
			}
		}()
		var once sync.Once
		stopRacer = func() { once.Do(func() { close(stop); <-done }) }
	}
	defer stopRacer()

	crashed := false
	crashServer := func() {
		crashed = true
		stopRacer()
		if err := s.crashRestartServer(sc.Fault.TornTail, sc.Fault.TornManifest); err != nil {
			t.Fatalf("server crash/restart: %v", err)
		}
	}
	var vs *vanishState
	if sc.Load.Concurrent {
		// The replication fault lands from a watcher goroutine once a quarter
		// of the workload has committed, so the kill catches the concurrent
		// designers mid-checkin with warm 2PC traffic in flight.
		stopWatch := func() {}
		if rs != nil {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				threshold := sc.Load.Ops / 4
				for {
					select {
					case <-stop:
						return
					default:
					}
					st.mu.Lock()
					committed := len(st.ledger)
					st.mu.Unlock()
					if committed >= threshold {
						rs.inject(t, s, sc)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			stopWatch = func() { close(stop); <-done }
		}
		var wg sync.WaitGroup
		per := sc.Load.Ops / sc.Topo.Workstations
		if per == 0 {
			per = 1
		}
		for ws := 0; ws < sc.Topo.Workstations; ws++ {
			wg.Add(1)
			go func(ws int) {
				defer wg.Done()
				mix := sc.Load.Mix
				mix.Seed += int64(ws + 1)
				rng := rand.New(rand.NewSource(mix.Seed * 7))
				for i := 0; i < per; i++ {
					runOp(s, st, ws, mix.Pick(), rng)
				}
			}(ws)
		}
		wg.Wait()
		stopWatch()
		if rs != nil {
			rs.inject(t, s, sc) // workload drained below threshold: inject now
		}
		if sc.Fault.CrashServer {
			crashServer()
		}
	} else {
		mix := sc.Load.Mix
		rng := rand.New(rand.NewSource(mix.Seed + 1))
		for i := 0; i < sc.Load.Ops; i++ {
			if sc.Fault.CrashWS && i == sc.Load.Ops/2 {
				if err := s.crashRestartWS(0); err != nil && !errors.Is(err, errUnsupported) {
					t.Fatalf("workstation crash/restart: %v", err)
				}
			}
			if sc.Fault.VanishWS && vs == nil && i == sc.Load.Ops/2 {
				vs = vanishWorkstation(t, s, st, sc)
			}
			if rs != nil && i == sc.Load.Ops/2 {
				rs.inject(t, s, sc)
			}
			runOp(s, st, i%sc.Topo.Workstations, mix.Pick(), rng)
			if ce := sc.Load.CheckpointEvery; ce > 0 && (i+1)%ce == 0 {
				_ = s.checkpoint() // armed points fire; failures tolerated
			}
			if sc.Fault.CrashServer && !crashed {
				if fired := sc.Fault.Point != "" && reg.Fired(sc.Fault.Point) > 0; fired ||
					(sc.Fault.Point == "" && i == sc.Load.Ops/2) {
					crashServer()
				}
			}
		}
		if sc.Fault.CrashServer && !crashed {
			crashServer() // armed point never fired mid-run: crash at the end
		}
	}
	// Workstation-failure lifecycle verifications (DESIGN.md §5.3) run after
	// the workload settles, while the chaos registry is still armed. They
	// come before the traversal check because they wait on the background
	// reaper, whose pass is itself a traversal of txn:lease-expired.
	if vs != nil {
		verifyReapAndTakeover(t, s, st, sc, vs)
	}
	if sc.Fault.PartitionWS {
		verifyPartitionRejoin(t, s, st, sc)
	}
	if sc.Fault.DiskFull {
		verifyDegradedMode(t, s, st, sc)
	}
	// Server-failover lifecycle verifications (DESIGN.md §5.4) also run while
	// the registry is armed: they wait on client-driven takeover before the
	// liveness phase needs a serving primary again.
	if sc.Fault.KillPrimary {
		verifyFailoverPromotion(t, s, st, sc, rs)
	}
	if sc.Fault.SplitBrain {
		verifySplitBrainFencing(t, s, st, sc, rs)
	}
	if sc.Fault.CrashStandby {
		verifyStandbyCrashDegrade(t, s, st, sc)
	}
	if sc.Fault.Point != "" && reg.Hits(sc.Fault.Point) == 0 {
		t.Errorf("fault point %s was never traversed: the scenario exercises nothing", sc.Fault.Point)
	}

	// Phase C — disarm and prove liveness: with the chaos over, every design
	// area must accept a new committed checkin.
	stopRacer()
	reg.DisarmAll()
	for _, da := range st.rootDAs {
		if err := doCheckin(s, st, 0, da); err != nil {
			t.Fatalf("post-fault recovery checkin in %s failed (liveness): %v", da, err)
		}
	}

	runOracles(t, sc, s, st)
}

// runOp dispatches one workload operation; failures while the fault is live
// are tolerated and counted.
func runOp(s site, st *runState, ws int, op sim.Op, rng *rand.Rand) {
	da := st.pickDA(rng)
	var err error
	switch op {
	case sim.OpCheckout:
		err = doCheckout(s, st, ws, da)
	case sim.OpDelegate:
		err = doDelegate(s, st, ws, da)
	case sim.OpHandOver:
		err = doHandOver(s, st, ws, da)
	case sim.OpSetStatus:
		err = doSetStatus(s, st, da)
	default:
		err = doCheckin(s, st, ws, da)
	}
	if err != nil {
		st.tolerated()
	}
}

// doCheckin derives a new version from the DA's newest committed version
// (or a root version when none exists) and commits it through the full 2PC
// checkin path. The ledger records the ID the moment Checkin succeeds.
func doCheckin(s site, st *runState, ws int, da string) error {
	dopID := st.nextDOPID()
	d, err := s.begin(ws, dopID, da)
	if err != nil {
		return err
	}
	parent := st.lastOf(da)
	root := parent == ""
	if !root {
		if _, err := d.Checkout(parent, false); err != nil {
			_ = d.Abort()
			return err
		}
	}
	if err := d.SetWorkspace(payload(da, dopID)); err != nil {
		_ = d.Abort()
		return err
	}
	id, err := d.Checkin(version.StatusWorking, root)
	if err != nil {
		_ = d.Abort()
		return err
	}
	st.recordCommit(da, id)
	_ = d.Commit() // checkin already durable; End-of-DOP failure is tolerable
	return nil
}

// doCheckout reads the DA's newest version into a workspace and abandons it.
func doCheckout(s site, st *runState, ws int, da string) error {
	parent := st.lastOf(da)
	if parent == "" {
		return doCheckin(s, st, ws, da)
	}
	d, err := s.begin(ws, st.nextDOPID(), da)
	if err != nil {
		return err
	}
	obj, err := d.Checkout(parent, false)
	if err == nil && obj == nil {
		err = fmt.Errorf("scenario: checkout %s returned no object", parent)
	}
	if aerr := d.Abort(); err == nil {
		err = aerr
	}
	return err
}

// doDelegate creates a sub design area (falling back to a plain DA on
// deployments without a cooperation manager) and gives it a root version.
func doDelegate(s site, st *runState, ws int, parent string) error {
	child := st.newSubDA()
	err := s.delegate(parent, child)
	if errors.Is(err, errUnsupported) {
		err = s.newDA(child)
	}
	if err != nil {
		return err
	}
	st.addDA(child, false)
	return doCheckin(s, st, ws, child)
}

// doHandOver prepares a derivation in one DOP, hands the in-memory state to
// a successor DOP (Sect. 5.1 fn. 1) and checks in from the successor.
func doHandOver(s site, st *runState, ws int, da string) error {
	parent := st.lastOf(da)
	if parent == "" {
		return doCheckin(s, st, ws, da)
	}
	d1, err := s.begin(ws, st.nextDOPID(), da)
	if err != nil {
		return err
	}
	dopID := st.nextDOPID()
	if _, err := d1.Checkout(parent, false); err != nil {
		_ = d1.Abort()
		return err
	}
	if err := d1.SetWorkspace(payload(da, dopID)); err != nil {
		_ = d1.Abort()
		return err
	}
	d2, err := s.begin(ws, dopID, da)
	if err != nil {
		_ = d1.Abort()
		return err
	}
	if err := d1.HandOver(d2); err != nil {
		_ = d1.Abort()
		_ = d2.Abort()
		return err
	}
	if err := d1.Abort(); err != nil {
		_ = d2.Abort()
		return err
	}
	id, err := d2.Checkin(version.StatusWorking, false)
	if err != nil {
		_ = d2.Abort()
		return err
	}
	st.recordCommit(da, id)
	_ = d2.Commit()
	return nil
}

// doSetStatus cycles the DA's newest version through the working →
// propagated → final lifecycle (an administrative repository operation).
func doSetStatus(s site, st *runState, da string) error {
	id := st.lastOf(da)
	if id == "" {
		return nil
	}
	r := s.repo()
	if r == nil {
		return errors.New("scenario: server down")
	}
	cycle := []version.Status{version.StatusWorking, version.StatusPropagated, version.StatusFinal}
	st.mu.Lock()
	sStatus := cycle[st.stSeq%len(cycle)]
	st.stSeq++
	st.mu.Unlock()
	return r.SetStatus(id, sStatus)
}

// runOracles checks every recovery invariant after the workload settles:
//
//  1. No lost committed checkins — every ledger entry exists on the server.
//  2. Repository consistency (graph acyclicity, index/graph agreement).
//  3. Cache coherence — checkouts on several workstations hash-match the
//     server's canonical encoding of the same version.
//  4. Byte-identical restart — StateDigest is unchanged across one more
//     crash/recover cycle.
//  5. Twin replay — after shutdown, serial record-at-a-time replay and the
//     pipelined production replay recover byte-identical states.
func runOracles(t *testing.T, sc Scenario, s site, st *runState) {
	t.Helper()
	r := s.repo()
	st.mu.Lock()
	ledger := append([]version.ID(nil), st.ledger...)
	failed := st.failed
	st.mu.Unlock()
	t.Logf("scenario %s: %d committed checkins, %d tolerated op failures", sc.Name, len(ledger), failed)

	// Oracle 1: no lost committed checkins.
	for _, id := range ledger {
		ok, err := r.Exists(id)
		if err != nil {
			t.Fatalf("oracle no-lost: Exists(%s): %v", id, err)
		}
		if !ok {
			t.Errorf("oracle no-lost: committed checkin %s is gone after recovery", id)
		}
	}

	// Oracle 2: repository consistency.
	if err := r.CheckConsistency(); err != nil {
		t.Errorf("oracle consistency: %v", err)
	}

	// Oracle 3: cache coherence — a checkout of a given version on any
	// workstation must deliver exactly the server's bytes, even after
	// dropped callbacks or a cache-epoch bump.
	wsN := sc.Topo.Workstations
	if wsN > 3 {
		wsN = 3
	}
	for _, da := range st.rootDAs {
		id := st.lastOf(da)
		if id == "" {
			continue
		}
		_, _, wantHash, err := r.Lookup(id)
		if err != nil {
			t.Fatalf("oracle coherence: server encoding of %s: %v", id, err)
		}
		for ws := 0; ws < wsN; ws++ {
			d, err := s.begin(ws, st.nextDOPID(), da)
			if err != nil {
				t.Fatalf("oracle coherence: begin on ws%d: %v", ws, err)
			}
			obj, err := d.Checkout(id, false)
			if err != nil {
				t.Errorf("oracle coherence: checkout %s on ws%d: %v", id, ws, err)
				_ = d.Abort()
				continue
			}
			enc, err := catalog.EncodeObject(obj)
			if err != nil {
				t.Fatalf("oracle coherence: encode: %v", err)
			}
			if got := catalog.HashEncoded(enc); string(got) != string(wantHash) {
				t.Errorf("oracle coherence: ws%d checkout of %s diverges from server content", ws, id)
			}
			_ = d.Abort()
		}
	}

	// Oracle 4: byte-identical recovery. A first, settling restart resolves
	// any in-doubt 2PC leftovers (a checkin whose coordinator logged COMMIT
	// but whose client saw an error keeps its staged entry until the next
	// recovery resolves it); after that, recovery must be a fixpoint: one
	// more crash/restart reproduces the exact repository state. A scenario
	// whose failover promoted the warm standby skips this one: the promoted
	// standby IS the recovery, and it cannot crash/restart in place (a
	// promoted standby never rejoins as a follower) — the twin-replay oracle
	// below still proves its on-disk state replays deterministically.
	if !sc.Fault.KillPrimary && !sc.Fault.SplitBrain {
		if err := s.crashRestartServer(false, false); err != nil {
			t.Fatalf("oracle restart: settling crash/restart: %v", err)
		}
		r = s.repo()
		before, err := r.StateDigest()
		if err != nil {
			t.Fatalf("oracle restart: digest before: %v", err)
		}
		if err := s.crashRestartServer(false, false); err != nil {
			t.Fatalf("oracle restart: crash/restart: %v", err)
		}
		after, err := s.repo().StateDigest()
		if err != nil {
			t.Fatalf("oracle restart: digest after: %v", err)
		}
		if before != after {
			t.Errorf("oracle restart: recovery is not byte-identical:\n--- before crash\n%s--- after recovery\n%s", before, after)
		}
	}

	// Oracle 5: twin replay — serial and pipelined replay of the same
	// directory are equivalent. Shut the site down first so the directory
	// is quiescent; the first open may finish an interrupted checkpoint or
	// truncate a torn tail, equivalence is on the final state.
	cat := s.catalog()
	repoDir := s.serverRepoDir()
	s.close()
	digestOf := func(serial bool) string {
		t.Helper()
		tw, err := repo.Open(cat, repo.Options{Dir: repoDir, SerialReplay: serial})
		if err != nil {
			t.Fatalf("oracle twin-replay: open (serial=%t): %v", serial, err)
		}
		defer tw.Close()
		if err := tw.CheckConsistency(); err != nil {
			t.Fatalf("oracle twin-replay: consistency (serial=%t): %v", serial, err)
		}
		d, err := tw.StateDigest()
		if err != nil {
			t.Fatalf("oracle twin-replay: digest (serial=%t): %v", serial, err)
		}
		return d
	}
	serial := digestOf(true)
	pipelined := digestOf(false)
	if serial != pipelined {
		t.Errorf("oracle twin-replay: serial and pipelined replay diverge:\n--- serial\n%s--- pipelined\n%s", serial, pipelined)
	}
}
