// Package scenario is the declarative chaos + scale matrix for the whole
// CONCORD stack: each entry names a topology (workstations, design areas,
// in-process or real TCP transport, cache temperature, workstation
// volatility), a seeded workload mix (checkout / checkin / delegate /
// handover / setstatus ratios via sim.OpMix), a fault (a named fault point
// from the internal/fault registry armed mid-run, a server or workstation
// crash, a torn WAL tail, dropped callbacks, checkpoints racing writers, a
// primary kill or split-brain partition of a replicated deployment, a
// standby crash) and runs a fixed oracle suite over the survivors: no
// committed checkin is
// ever lost, repository consistency holds, recovery is byte-identical
// across a restart (StateDigest), two opens of the quiescent directory
// recover the same state, and every workstation cache checkout revalidates
// to the server's content hash.
//
// The short matrix (Short) runs under plain `go test ./internal/scenario`
// for CI; the long matrix (Long) is gated behind CONCORD_SCENARIOS_LONG=1
// and reached via `make scenarios`. Fault-point coverage — which named
// points were traversed and fired across the whole run — is aggregated
// process-wide and rendered by CoverageReport (CI uploads it as an
// artifact).
package scenario

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"concord/internal/fault"
	"concord/internal/repl"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/sim"
	"concord/internal/txn"
	"concord/internal/wal"
)

// Transport selects how workstations reach the server site.
type Transport uint8

// Transports.
const (
	// InProc uses the in-process transport (the core.System deployment).
	InProc Transport = iota
	// TCP uses real TCP sockets carrying the multiplexed binenc wire
	// protocol (the cmd/concordd deployment: a server.Assemble site behind
	// an rpc.TCP listener).
	TCP
)

// String names the transport.
func (tr Transport) String() string {
	if tr == TCP {
		return "tcp"
	}
	return "inproc"
}

// Topology is the deployment shape of one scenario entry.
type Topology struct {
	// Workstations is the number of workstation sites.
	Workstations int
	// DesignAreas is the number of top-level design areas.
	DesignAreas int
	// Transport selects in-process or real TCP sockets.
	Transport Transport
	// ColdCache skips the cache warm-up checkouts, so every first checkout
	// pays a full transfer.
	ColdCache bool
	// VolatileWS keeps workstation state in memory (no workstation crash
	// recovery; the server remains persistent).
	VolatileWS bool
	// SegmentBytes overrides the server WAL segment rotation threshold
	// (0 uses the default). Small values make segments roll and get
	// deleted during the run, so the late checkpoint-protocol fault
	// points are traversed.
	SegmentBytes int64
	// CheckpointMaxChain bounds the incremental snapshot chain's length
	// before a full rebase, on top of the repository's byte rule (0 sets
	// no count bound). Small values make checkpoints alternate the full
	// and incremental protocol paths, so both sets of fault points are
	// traversed; 1 rebases on every checkpoint.
	CheckpointMaxChain int
	// LeaseTTL overrides the workstation session lease lifetime (0 uses
	// txn.DefaultLeaseTTL). The vanish/partition entries shrink it so the
	// reaper acts within the test budget.
	LeaseTTL time.Duration
	// HeartbeatEvery overrides the lease renewal period (0 derives it from
	// LeaseTTL).
	HeartbeatEvery time.Duration
	// DegradedOnWALFailure routes a server WAL append/fsync failure to
	// read-only degraded mode instead of fail-stop.
	DegradedOnWALFailure bool
	// Replicated deploys a warm standby next to the server: the repository
	// and participant redo logs ship to it live, and on primary death the
	// workstations promote it and move their sessions over (in-process
	// transport only; DESIGN.md §5.4).
	Replicated bool
	// SyncReplication makes every commit wait for the standby's ack, so a
	// checkin the designer saw succeed is durable at both sites. Requires
	// Replicated.
	SyncReplication bool
}

// Workload is the seeded operation stream driven against the topology.
type Workload struct {
	// Mix weights the designer operations (sim.OpMix, seeded).
	Mix sim.OpMix
	// Ops is the total number of operations in the fault phase.
	Ops int
	// Concurrent drives each workstation from its own goroutine instead of
	// round-robin from one driver.
	Concurrent bool
	// CheckpointEvery runs an explicit checkpoint after every N sequential
	// operations (0 checkpoints only where a fault asks for it). With a
	// generous CheckpointMaxChain this grows a multi-element incremental
	// chain for the restart-from-chain scenarios.
	CheckpointEvery int
}

// Fault is the chaos applied while the workload runs. The zero value is a
// fault-free scenario (oracles still run).
type Fault struct {
	// Point is a named fault point to arm one-shot (wal.Crash*,
	// repo.CrashSnapshot*, rpc.Fault*, txn.Fault*); empty arms nothing.
	Point string
	// Skip lets that many traversals pass before the point fires.
	Skip int
	// CrashServer crashes and restarts the server once the armed point has
	// fired (or at the workload midpoint when Point is empty).
	CrashServer bool
	// TornTail appends garbage to the repository WAL's active segment
	// while the server is down, simulating a torn partial write.
	TornTail bool
	// TornManifest appends garbage to the snapshot chain manifest while
	// the server is down, simulating a torn incremental-checkpoint append.
	// Recovery must keep the longest valid prefix and lose nothing.
	TornManifest bool
	// CrashWS crashes and restarts workstation 0 at the workload midpoint
	// (cache epoch bump; sequential workloads only).
	CrashWS bool
	// DropCallbacks arms rpc.FaultNotifyDrop for the whole run, so every
	// cache-invalidation callback is dropped.
	DropCallbacks bool
	// RaceCheckpoint runs explicit checkpoints in a background loop while
	// the workload writes (how the checkpoint-protocol points get
	// traversed under load).
	RaceCheckpoint bool
	// VanishWS kills workstation 0 at the workload midpoint WITHOUT
	// restarting it (sequential in-process workloads only): its heartbeats
	// stop, the lease expires, and the reaper reclaims the footprint. The
	// driver verifies reclamation within 2×LeaseTTL, proves a surviving
	// designer can then commit, and finally revives the workstation so
	// Rejoin resumes its recovered DOP context.
	VanishWS bool
	// VanishMid2PC additionally leaves workstation 0 mid-checkin at vanish
	// time: a derivation lock held by a dangling DOP and a staged-but-
	// unprepared checkin branch on the server. The reaper must presume-abort
	// the branch and free the lock for the next designer. Implies VanishWS.
	VanishMid2PC bool
	// PartitionWS simulates a heartbeat partition of workstation 0 (armed
	// txn.FaultHeartbeatDrop) long enough for its lease to be reaped while
	// the client stays alive, then heals it: the next heartbeat sees
	// ErrNoLease, auto-rejoins, and the pre-partition DOP resumes.
	PartitionWS bool
	// DiskFull arms wal.FaultAppendSync (after Skip traversals) so a server
	// WAL append fails mid-run. With Topology.DegradedOnWALFailure the
	// server latches read-only degraded mode: the driver verifies reads
	// still serve, mutations fail fast, the health endpoint reports
	// "degraded", and a restart restores writability.
	DiskFull bool
	// KillPrimary crashes the primary server mid-workload WITHOUT restarting
	// it. The workstations' heartbeat loops must drive the takeover —
	// promote the warm standby, rejoin, resume — within 2×heartbeat, and no
	// committed checkin may be lost (requires Topology.Replicated).
	KillPrimary bool
	// SplitBrain partitions a LIVE primary from every workstation
	// mid-workload: the clients promote the standby while the old primary
	// keeps running. Once the partition heals, the deposed primary's next
	// commit must be refused with rpc.ErrStaleEpoch before any split-brain
	// write is acknowledged (requires Topology.Replicated).
	SplitBrain bool
	// CrashStandby kills the warm standby mid-workload: a synchronous
	// primary must degrade to trailing replication and keep committing
	// instead of blocking designers; after the standby restarts, the sender
	// must catch it up and return to sync mode (requires
	// Topology.Replicated + SyncReplication).
	CrashStandby bool
}

// Scenario is one entry of the matrix: topology × workload × fault, always
// checked by the full oracle suite.
type Scenario struct {
	// Name labels the subtest.
	Name string
	// Topo is the deployment shape.
	Topo Topology
	// Load is the seeded workload.
	Load Workload
	// Fault is the chaos applied mid-run.
	Fault Fault
}

// KnownFaultPoints is the full catalog of named fault points across the
// stack (checkpoint protocol, 2PC engine, server-TM, lease lifecycle, WAL
// durability, notifier, replication shipping). The coverage report lists
// every one of them, so a point that silently stops firing is visible.
func KnownFaultPoints() []string {
	out := make([]string, 0, len(repo.CrashPoints)+len(rpc.FaultPoints)+len(txn.FaultPoints)+len(repl.FaultPoints)+1)
	out = append(out, repo.CrashPoints...)
	out = append(out, rpc.FaultPoints...)
	out = append(out, txn.FaultPoints...)
	out = append(out, repl.FaultPoints...)
	out = append(out, wal.FaultAppendSync)
	return out
}

// covMu guards the process-wide coverage accumulation.
var covMu sync.Mutex

// covHits / covFired accumulate per-point counters across every Run in the
// process.
var covHits, covFired map[string]uint64

// recordCoverage folds one scenario registry into the process-wide totals.
func recordCoverage(reg *fault.Registry) {
	covMu.Lock()
	defer covMu.Unlock()
	if covHits == nil {
		covHits = make(map[string]uint64)
		covFired = make(map[string]uint64)
	}
	for _, s := range reg.Snapshot() {
		covHits[s.Point] += s.Hits
		covFired[s.Point] += s.Fired
	}
}

// CoverageReport renders the aggregated fault-point coverage of every
// scenario run so far in this process: one "point hits fired" row per known
// point (zero rows included). The scenario test binary writes it to the
// path named by SCENARIO_COVERAGE_OUT.
func CoverageReport() string {
	covMu.Lock()
	defer covMu.Unlock()
	var b strings.Builder
	b.WriteString("point\thits\tfired\n")
	for _, p := range sortedPoints() {
		fmt.Fprintf(&b, "%s\t%d\t%d\n", p, covHits[p], covFired[p])
	}
	return b.String()
}

// sortedPoints returns the union of known and observed points, sorted.
// covMu must be held.
func sortedPoints() []string {
	seen := make(map[string]bool)
	var out []string
	for _, p := range KnownFaultPoints() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for p := range covHits {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
