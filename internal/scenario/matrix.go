package scenario

import (
	"fmt"
	"time"

	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/sim"
	"concord/internal/txn"
)

// mixedLoad is the default designer mix: checkin-heavy with a steady stream
// of checkouts, occasional delegations, handovers and status flips.
func mixedLoad(ops int, seed int64) Workload {
	return Workload{
		Mix: sim.OpMix{Checkout: 3, Checkin: 6, Delegate: 1, HandOver: 1, SetStatus: 1, Seed: seed},
		Ops: ops,
	}
}

// writeLoad is a pure checkin stream (every op traverses the 2PC path).
func writeLoad(ops int, seed int64) Workload {
	return Workload{Mix: sim.OpMix{Checkin: 1, Seed: seed}, Ops: ops}
}

// smallTopo is the default short-matrix shape: two workstations, two DAs,
// in-process transport.
func smallTopo() Topology {
	return Topology{Workstations: 2, DesignAreas: 2}
}

// Short is the CI matrix: every fault class (checkpoint-protocol crashes
// racing live writers, 2PC crashes at each durability point, dropped
// callbacks, torn WAL tail, workstation crash with a cache-epoch bump,
// volatile workstations, a TCP deployment and a concurrent scale entry),
// each checked by the full oracle suite.
func Short() []Scenario {
	out := []Scenario{
		{
			Name: "inproc-baseline-smoke",
			Topo: smallTopo(),
			Load: mixedLoad(40, 1),
		},
		{
			Name:  "inproc-callback-drop",
			Topo:  smallTopo(),
			Load:  Workload{Mix: sim.OpMix{Checkout: 4, Checkin: 4, HandOver: 2, Seed: 2}, Ops: 40},
			Fault: Fault{DropCallbacks: true},
		},
		{
			Name:  "inproc-torn-wal-tail",
			Topo:  smallTopo(),
			Load:  writeLoad(30, 3),
			Fault: Fault{CrashServer: true, TornTail: true},
		},
		{
			Name:  "inproc-stale-cache-epoch",
			Topo:  Topology{Workstations: 2, DesignAreas: 2},
			Load:  mixedLoad(40, 4),
			Fault: Fault{CrashWS: true},
		},
		{
			Name:  "inproc-volatile-ws-server-crash",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, VolatileWS: true},
			Load:  writeLoad(30, 5),
			Fault: Fault{CrashServer: true},
		},
		{
			Name: "inproc-cold-cache",
			Topo: Topology{Workstations: 2, DesignAreas: 2, ColdCache: true},
			Load: mixedLoad(40, 6),
		},
		{
			Name: "tcp-baseline",
			Topo: Topology{Workstations: 2, DesignAreas: 2, Transport: TCP},
			Load: Workload{Mix: sim.OpMix{Checkout: 3, Checkin: 6, Delegate: 1, SetStatus: 1, Seed: 7}, Ops: 40},
		},
		{
			Name:  "tcp-2pc-checkin-installed-crash",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, Transport: TCP},
			Load:  writeLoad(30, 8),
			Fault: Fault{Point: txn.FaultCheckinInstalled, Skip: 10, CrashServer: true},
		},
		{
			// Dropped invalidation callbacks over real sockets: the
			// notifier dials each workstation's callback listener and the
			// armed drop point swallows deliveries; the coherence oracle
			// must still see server-identical checkouts.
			Name:  "tcp-callback-drop",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, Transport: TCP},
			Load:  Workload{Mix: sim.OpMix{Checkout: 4, Checkin: 4, HandOver: 2, Seed: 10}, Ops: 40},
			Fault: Fault{DropCallbacks: true},
		},
		{
			// Server crash/restart halfway through the run: every pooled
			// multiplexed client connection dies mid-workload and the
			// reliable clients must ride over reconnection (retriable
			// ErrDropped/ErrUnreachable) against the recovered incarnation
			// on the same port.
			Name:  "tcp-server-crash-pooled-conns",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, Transport: TCP},
			Load:  writeLoad(30, 11),
			Fault: Fault{CrashServer: true},
		},
		{
			// Concurrent workstations pipelining over shared connections,
			// then a crash that kills the server with the pools warm.
			Name: "tcp-scale-concurrent",
			Topo: Topology{Workstations: 4, DesignAreas: 2, Transport: TCP},
			Load: Workload{
				Mix:        sim.OpMix{Checkout: 3, Checkin: 6, SetStatus: 1, Seed: 12},
				Ops:        80,
				Concurrent: true,
			},
			Fault: Fault{CrashServer: true},
		},
		{
			// Torn incremental-checkpoint append: periodic checkpoints grow a
			// chain, the crash corrupts the manifest's tail, and recovery must
			// keep the valid prefix plus the WAL suffix with nothing lost.
			Name:  "inproc-torn-manifest-tail",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, SegmentBytes: 2 << 10, CheckpointMaxChain: 4},
			Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 13}, Ops: 30, CheckpointEvery: 5},
			Fault: Fault{CrashServer: true, TornManifest: true},
		},
		{
			// Restart from a base plus several incremental deltas: a generous
			// chain bound with frequent checkpoints builds a chain of three or
			// more before the crash, so recovery folds the whole chain before
			// replaying the WAL suffix.
			Name:  "inproc-ckpt-chain-of-3-restart",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, SegmentBytes: 2 << 10, CheckpointMaxChain: 8},
			Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 14}, Ops: 40, CheckpointEvery: 5},
			Fault: Fault{CrashServer: true},
		},
		{
			// Full rebase every checkpoint (a chain bound of 1) racing
			// writers, then a crash.
			Name:  "inproc-full-rebase-ckpt-crash",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, SegmentBytes: 2 << 10, CheckpointMaxChain: 1},
			Load:  writeLoad(30, 15),
			Fault: Fault{CrashServer: true, RaceCheckpoint: true},
		},
		{
			// The PR-9 acceptance scenario: workstation 0 is killed
			// mid-checkin (derivation lock held, 2PC branch staged but not
			// prepared). Within 2×LeaseTTL the reaper presumed-aborts the
			// branch and frees the lock, a surviving designer derives from
			// the same version and commits, and the killed workstation's
			// next incarnation rejoins with its recovered DOP context. The
			// digest oracles prove no committed state was lost.
			Name:  "inproc-ws-vanish-mid-2pc",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, LeaseTTL: 500 * time.Millisecond},
			Load:  writeLoad(24, 16),
			Fault: Fault{VanishMid2PC: true},
		},
		{
			// Vanish while holding only a derivation lock, with the reaper
			// additionally delayed one pass by the armed lease-expired
			// point; the second workstation still acquires after reaping.
			Name:  "inproc-ws-vanish-derivation-lock",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, LeaseTTL: 500 * time.Millisecond},
			Load:  mixedLoad(24, 17),
			Fault: Fault{VanishWS: true, Point: txn.FaultLeaseExpired},
		},
		{
			// Heartbeat partition of a live workstation: its lease is reaped,
			// the heal triggers an ErrNoLease-driven auto-Rejoin, and the
			// pre-partition DOP resumes with a successful checkin.
			Name: "inproc-partition-rejoin-resumes-dop",
			Topo: Topology{
				Workstations: 2, DesignAreas: 2,
				LeaseTTL: 300 * time.Millisecond, HeartbeatEvery: 30 * time.Millisecond,
			},
			Load:  mixedLoad(24, 18),
			Fault: Fault{PartitionWS: true},
		},
		{
			// Disk-full on the server WAL with the degradation knob on: the
			// server latches read-only degraded mode — checkouts keep
			// serving, mutations fail fast, health reports "degraded" — and
			// a restart restores writability.
			Name:  "inproc-disk-full-degraded-reads",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, DegradedOnWALFailure: true},
			Load:  writeLoad(24, 19),
			Fault: Fault{DiskFull: true, Skip: 10},
		},
		{
			Name: "inproc-scale-concurrent",
			Topo: Topology{Workstations: 4, DesignAreas: 3},
			Load: Workload{
				Mix:        sim.OpMix{Checkout: 3, Checkin: 6, SetStatus: 1, Seed: 9},
				Ops:        80,
				Concurrent: true,
			},
			Fault: Fault{RaceCheckpoint: true},
		},
		{
			// The PR-10 acceptance scenario: the primary dies while concurrent
			// designers are mid-checkin. The workstations' heartbeat loops
			// drive the takeover — promote the warm standby, rejoin, resume —
			// within 2×heartbeat, and the ledger oracle proves every
			// synchronously committed checkin survived the failover.
			Name: "inproc-repl-primary-kill-failover",
			Topo: Topology{
				Workstations: 2, DesignAreas: 2, Replicated: true, SyncReplication: true,
				LeaseTTL: 3 * time.Second, HeartbeatEvery: time.Second,
			},
			Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 40}, Ops: 40, Concurrent: true},
			Fault: Fault{KillPrimary: true},
		},
		{
			// Split brain: a partition separates a LIVE primary from its
			// workstations, which promote the standby. Once the partition
			// heals, the deposed primary's next commit must be refused with
			// ErrStaleEpoch before any split-brain write is acknowledged.
			Name: "inproc-repl-split-brain-fencing",
			Topo: Topology{
				Workstations: 2, DesignAreas: 2, Replicated: true, SyncReplication: true,
				LeaseTTL: 3 * time.Second, HeartbeatEvery: time.Second,
			},
			Load:  writeLoad(30, 41),
			Fault: Fault{SplitBrain: true},
		},
		{
			// Standby crash: synchronous replication degrades to trailing
			// instead of blocking designers, the restarted standby is caught
			// back up from its durable replicated state, and sync returns.
			Name:  "inproc-repl-standby-crash-degrade",
			Topo:  Topology{Workstations: 2, DesignAreas: 2, Replicated: true, SyncReplication: true},
			Load:  writeLoad(30, 42),
			Fault: Fault{CrashStandby: true},
		},
	}
	// Crash at each checkpoint-protocol durability point while checkpoints
	// race live writers; tiny segments make the log roll so the
	// segment-deletion points are traversed, and a chain bound of 2 makes
	// the racing checkpoints alternate the full and incremental paths so
	// the delta-only points fire too.
	for i, point := range repo.CrashPoints {
		out = append(out, Scenario{
			Name:  "inproc-ckpt-crash-" + shortPoint(point),
			Topo:  Topology{Workstations: 2, DesignAreas: 2, SegmentBytes: 2 << 10, CheckpointMaxChain: 2},
			Load:  writeLoad(30, 20+int64(i)),
			Fault: Fault{Point: point, Skip: 1, CrashServer: true, RaceCheckpoint: true},
		})
	}
	// Crash at each 2PC durability point mid-workload.
	for i, point := range []string{
		txn.FaultStagePersisted, txn.FaultCheckinInstalled,
		rpc.FaultPrepareVoteLogged, rpc.FaultDecisionLogged, rpc.FaultCommitApply,
	} {
		out = append(out, Scenario{
			Name:  "inproc-2pc-crash-" + shortPoint(point),
			Topo:  smallTopo(),
			Load:  writeLoad(30, 30+int64(i)),
			Fault: Fault{Point: point, Skip: 10, CrashServer: true},
		})
	}
	return out
}

// Long is the exhaustive matrix behind `make scenarios`
// (CONCORD_SCENARIOS_LONG=1): every checkpoint-protocol point under racing
// checkpoints, every 2PC point over both transports, multiple seeds and a
// larger concurrent scale-out.
func Long() []Scenario {
	var out []Scenario
	for i, point := range repo.CrashPoints {
		out = append(out, Scenario{
			Name:  "long-ckpt-crash-" + shortPoint(point),
			Topo:  Topology{Workstations: 3, DesignAreas: 3, SegmentBytes: 2 << 10, CheckpointMaxChain: 2},
			Load:  writeLoad(120, 100+int64(i)),
			Fault: Fault{Point: point, Skip: 2, CrashServer: true, RaceCheckpoint: true},
		})
	}
	out = append(out,
		Scenario{
			Name:  "long-torn-manifest-tail",
			Topo:  Topology{Workstations: 3, DesignAreas: 3, SegmentBytes: 2 << 10, CheckpointMaxChain: 4},
			Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 150}, Ops: 120, CheckpointEvery: 10},
			Fault: Fault{CrashServer: true, TornManifest: true},
		},
		Scenario{
			Name:  "long-ckpt-chain-restart",
			Topo:  Topology{Workstations: 3, DesignAreas: 3, SegmentBytes: 2 << 10, CheckpointMaxChain: 16},
			Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 151}, Ops: 120, CheckpointEvery: 8},
			Fault: Fault{CrashServer: true},
		},
	)
	twoPC := []string{
		txn.FaultStagePersisted, txn.FaultCheckinInstalled,
		rpc.FaultPrepareVoteLogged, rpc.FaultDecisionLogged, rpc.FaultCommitApply,
	}
	for _, tr := range []Transport{InProc, TCP} {
		for i, point := range twoPC {
			out = append(out, Scenario{
				Name:  fmt.Sprintf("long-%s-2pc-crash-%s", tr, shortPoint(point)),
				Topo:  Topology{Workstations: 3, DesignAreas: 2, Transport: tr},
				Load:  writeLoad(90, 200+int64(i)),
				Fault: Fault{Point: point, Skip: 25, CrashServer: true},
			})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, Scenario{
			Name: fmt.Sprintf("long-mixed-chaos-seed%d", seed),
			Topo: Topology{Workstations: 3, DesignAreas: 3},
			Load: mixedLoad(150, 300+seed),
			Fault: Fault{
				DropCallbacks: true, CrashServer: true, TornTail: seed%2 == 0,
				RaceCheckpoint: true,
			},
		})
	}
	out = append(out, Scenario{
		Name: "long-scale-concurrent",
		Topo: Topology{Workstations: 8, DesignAreas: 4},
		Load: Workload{
			Mix:        sim.OpMix{Checkout: 3, Checkin: 6, SetStatus: 1, Seed: 400},
			Ops:        400,
			Concurrent: true,
		},
		Fault: Fault{RaceCheckpoint: true},
	}, Scenario{
		// The short failover scenario at scale: more designers, more
		// committed work riding over the promotion.
		Name: "long-repl-primary-kill-concurrent",
		Topo: Topology{
			Workstations: 4, DesignAreas: 3, Replicated: true, SyncReplication: true,
			LeaseTTL: 3 * time.Second, HeartbeatEvery: time.Second,
		},
		Load:  Workload{Mix: sim.OpMix{Checkin: 1, Seed: 410}, Ops: 160, Concurrent: true},
		Fault: Fault{KillPrimary: true},
	})
	return out
}

// shortPoint turns "owner:some-event" into "owner-some-event" for subtest
// names.
func shortPoint(point string) string {
	b := []byte(point)
	for i, c := range b {
		if c == ':' {
			b[i] = '-'
		}
	}
	return string(b)
}
