package experiments

import (
	"fmt"
	"os"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/version"
	"concord/internal/vlsi"
)

// ReplCheckinResult is end-to-end checkin latency (DOP begin → derive
// checkout → 2PC checkin → commit) under one replication design.
type ReplCheckinResult struct {
	// P50/P99 are per-checkin latency percentiles.
	P50, P99 time.Duration
}

// FailoverTiming is the outcome of one client-driven takeover measurement.
type FailoverTiming struct {
	// Heartbeat is the workstation lease-renewal period the run used (the
	// failure-detection clock).
	Heartbeat time.Duration
	// Takeover is the designer-visible outage: primary kill → the next
	// checkin commits at the promoted standby.
	Takeover time.Duration
	// Epoch is the replication epoch after the promotion.
	Epoch uint64
}

// replDesigns are the E20 configurations, in report order.
var replDesigns = []string{"unreplicated", "trailing", "sync"}

// bootReplSystem deploys one server (optionally with a warm standby), one
// design area and one workstation, and seeds a root version to derive from.
func bootReplSystem(dir, design string, heartbeat time.Duration) (*core.System, *core.Workstation, version.ID, error) {
	opts := core.Options{
		Dir:           dir,
		RegisterTypes: vlsi.RegisterCatalog,
		// Only the server-side commit path is under test; workstation-local
		// recovery logs would add private fsyncs that obscure it.
		VolatileWorkstations: true,
	}
	switch design {
	case "trailing":
		opts.Replicated = true
	case "sync":
		opts.Replicated = true
		opts.SyncReplication = true
	}
	if heartbeat > 0 {
		opts.HeartbeatEvery = heartbeat
		opts.LeaseTTL = 10 * heartbeat
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return nil, nil, "", err
	}
	fail := func(err error) (*core.System, *core.Workstation, version.ID, error) {
		sys.Close()
		return nil, nil, "", err
	}
	if err := sys.CM().InitDesign(coop.Config{ID: "da", DOT: vlsi.DOTFloorplan, Designer: "designer"}); err != nil {
		return fail(err)
	}
	if err := sys.CM().Start("da"); err != nil {
		return fail(err)
	}
	ws, err := sys.AddWorkstation("ws")
	if err != nil {
		return fail(err)
	}
	root, err := replCheckin(ws, "")
	if err != nil {
		return fail(err)
	}
	if opts.SyncReplication {
		// Measure sync mode, not the catch-up window: wait until the sender
		// reports every commit is acknowledged by the standby inline.
		deadline := time.Now().Add(10 * time.Second)
		for sys.ReplHealth().Mode != "sync" {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("sender never reached sync mode"))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return sys, ws, root, nil
}

// replCheckin runs one full checkout → modify → checkin cycle and returns
// the committed version (a root checkin when parent is empty).
func replCheckin(ws *core.Workstation, parent version.ID) (version.ID, error) {
	dop, err := ws.Begin("", "da")
	if err != nil {
		return "", err
	}
	if parent != "" {
		if _, err := dop.Checkout(parent, true); err != nil {
			_ = dop.Abort()
			return "", err
		}
	}
	obj := catalog.NewObject(vlsi.DOTFloorplan).
		Set("cell", catalog.Str(string(parent)+"+")).
		Set("area", catalog.Float(100))
	if err := dop.SetWorkspace(obj); err != nil {
		_ = dop.Abort()
		return "", err
	}
	id, err := dop.Checkin(version.StatusWorking, parent == "")
	if err != nil {
		_ = dop.Abort()
		return "", err
	}
	return id, dop.Commit()
}

// RunReplicatedCheckins measures what warm-standby replication costs the
// designers (DESIGN.md §5.4, E20): `checkins` chained checkin cycles through
// the full workstation path under one design — "unreplicated" (no standby),
// "trailing" (asynchronous shipping), or "sync" (every commit waits for the
// standby's ack) — each timed individually.
func RunReplicatedCheckins(design string, checkins int) (ReplCheckinResult, error) {
	var res ReplCheckinResult
	dir, err := os.MkdirTemp("", "concord-e20")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	sys, ws, last, err := bootReplSystem(dir, design, 0)
	if err != nil {
		return res, err
	}
	defer sys.Close()
	samples := make([]time.Duration, 0, checkins)
	for i := 0; i < checkins; i++ {
		start := time.Now()
		id, err := replCheckin(ws, last)
		if err != nil {
			return res, fmt.Errorf("%s checkin %d: %w", design, i, err)
		}
		samples = append(samples, time.Since(start))
		last = id
	}
	res.P50 = percentile(samples, 0.50)
	res.P99 = percentile(samples, 0.99)
	return res, nil
}

// RunFailoverTakeover measures client-driven takeover (DESIGN.md §5.4, E20):
// a synchronously replicated deployment commits `warm` checkins, the primary
// is killed without restart, and the clock runs until the workstation's next
// checkin commits at the promoted standby — heartbeat-driven detection,
// promotion, epoch adoption and session rejoin included.
func RunFailoverTakeover(heartbeat time.Duration, warm int) (FailoverTiming, error) {
	res := FailoverTiming{Heartbeat: heartbeat}
	dir, err := os.MkdirTemp("", "concord-e20f")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	sys, ws, last, err := bootReplSystem(dir, "sync", heartbeat)
	if err != nil {
		return res, err
	}
	defer sys.Close()
	for i := 0; i < warm; i++ {
		id, err := replCheckin(ws, last)
		if err != nil {
			return res, fmt.Errorf("warm checkin %d: %w", i, err)
		}
		last = id
	}
	if err := sys.CrashServer(); err != nil {
		return res, err
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for {
		if _, err := replCheckin(ws, last); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("no checkin committed at the standby within %v of the primary kill", time.Since(start))
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Takeover = time.Since(start)
	res.Epoch = sys.ReplHealth().Epoch
	if h := sys.ReplHealth(); !h.StandbyPromoted {
		return res, fmt.Errorf("checkin committed but the standby was not promoted: %+v", h)
	}
	return res, nil
}

// E20Failover quantifies warm-standby replication (DESIGN.md §5.4): what
// synchronous WAL shipping costs each checkin against the unreplicated and
// trailing designs, and how long a designer is blocked when the primary dies
// and client-driven takeover promotes the standby.
func E20Failover() (Report, error) {
	rep := Report{
		ID:     "E20",
		Title:  "warm-standby replication: checkin cost by design and client-driven failover (DESIGN.md §5.4)",
		Header: []string{"design", "checkin p50", "checkin p99", "p99 vs unreplicated"},
	}
	const checkins = 600
	var basP99 time.Duration
	for _, design := range replDesigns {
		res, err := RunReplicatedCheckins(design, checkins)
		if err != nil {
			return rep, fmt.Errorf("E20 %s: %w", design, err)
		}
		ratio := "1.0x"
		if design == "unreplicated" {
			basP99 = res.P99
		} else if basP99 > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(res.P99)/float64(basP99))
		}
		rep.Rows = append(rep.Rows, []string{design, us(res.P50), us(res.P99), ratio})
	}
	const heartbeat = 50 * time.Millisecond
	ft, err := RunFailoverTakeover(heartbeat, 20)
	if err != nil {
		return rep, fmt.Errorf("E20 failover: %w", err)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("%d timed checkins per design through the full workstation path (DOP begin, derive checkout, 2PC checkin, commit)", checkins),
		"sync = every commit waits for the standby's ack; trailing = asynchronous shipping bounded by ReplLagMax",
		fmt.Sprintf("client-driven takeover after a primary kill: %v to the next committed checkin (heartbeat %v, epoch %d)",
			ft.Takeover.Round(time.Millisecond), ft.Heartbeat, ft.Epoch),
	)
	return rep, nil
}
