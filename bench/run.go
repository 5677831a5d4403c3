package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w        *workload
	seed     int64
	seconds  float64
	trace    bool
	concordd string // path of the concordd binary
	scratch  string // where data directories live for the length of the run
	outDir   string // where a traced run leaves its spans
}

// setupReps is how often an untraced run sets up (seed, boot, attach, warm)
// before it measures; setup_s is the median.
const setupReps = 5

// recoveryReps is how often the run kills and restarts concordd on the data
// directory the window left behind; recovery_s is the median.
const recoveryReps = 9

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// extra is a number the human report prints beside the contract metrics:
// defined on some workloads only, or a sample count.
type extra struct {
	name, unit string
	value      float64
	n          int
}

// result is everything one run found.
type result struct {
	workload  string
	seed      int64
	e2e       map[string]metric
	layers    map[string]metric
	extras    []extra
	attempted int
	failed    int
	correct   bool
	invalid   string // non-empty: the generator, not the system, was the limit
	firstErr  error
	budgets   []*budgetTable // traced runs: hot checkout, durable checkin
	tracePath string
}

// env is a set-up system: a concordd on a seeded directory and the two
// workstations attached to it.
type env struct {
	dir     string
	dataDir string
	srv     *server
	actors  [2]*actor
	recs    []*spanRecorder
	epoch   time.Time
	seeded  []versionSum
	seedLen int64 // payload bytes seeded
}

func (e *env) tearDown() {
	for _, a := range e.actors {
		if a != nil && a.st != nil {
			a.st.close()
			a.st = nil
		}
	}
	if e.srv != nil {
		e.srv.kill()
		e.srv = nil
	}
	os.RemoveAll(e.dir) //nolint:errcheck // scratch; the next run uses another name
}

// setUp is what setup_s times: seed the data directory offline, boot concordd
// on it (recovery of the seeded directory), attach the workstations, warm.
func setUp(cfg runConfig, g gen, p plan, rep int) (*env, error) {
	e := &env{
		dir:   filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d-%d", cfg.w.name, os.Getpid(), rep)),
		epoch: time.Now(),
	}
	e.dataDir = filepath.Join(e.dir, "server")
	ok := false
	defer func() {
		if !ok {
			e.tearDown()
		}
	}()
	if err := os.MkdirAll(e.dataDir, 0o755); err != nil {
		return nil, err
	}
	if err := seedDataDir(e.dataDir, p.das); err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	for _, da := range p.das {
		for _, o := range da.objects {
			e.seeded = append(e.seeded, versionSum{id: o.id, da: da.id, sum: checksum(o.payload)})
			e.seedLen += int64(len(o.payload))
		}
	}
	srv, err := startServer(cfg.concordd, e.dataDir)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	if srv.recovered != len(e.seeded) {
		return nil, fmt.Errorf("concordd recovered %d DOVs, seeded %d", srv.recovered, len(e.seeded))
	}
	for i := range e.actors {
		var rec *spanRecorder
		if cfg.trace {
			rec = newSpanRecorder(e.epoch, 1<<18)
			e.recs = append(e.recs, rec)
		}
		wsDir := ""
		if p.durable {
			wsDir = filepath.Join(e.dir, p.ids[i])
		}
		st, err := openStation(p.ids[i], srv.addr, wsDir, rec)
		if err != nil {
			return nil, err
		}
		e.actors[i] = &actor{
			st: st, rng: g.rng("choices/"+cfg.w.name, i), epoch: e.epoch, trace: cfg.trace,
			ops: make([]opRec, 0, 1<<16), cycles: make([]cycleRec, 0, 1<<13),
		}
	}
	if err := p.warm(e.actors); err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	ok = true
	return e, nil
}

// edge is what the run reads at each end of the window.
type edge struct {
	at      int64
	srv     procSample
	selfCPU time.Duration
	wire    [2]wireCounts
}

func (e *env) readEdge() (edge, error) {
	s, err := readProc(e.srv.pid())
	if err != nil {
		return edge{}, err
	}
	ed := edge{at: int64(time.Since(e.epoch)), srv: s, selfCPU: selfCPU()}
	for i, a := range e.actors {
		ed.wire[i] = a.st.wire()
	}
	return ed, nil
}

// runWorkload does one whole run: set-up, warm-up, window, crash, audit.
func runWorkload(cfg runConfig) (*result, error) {
	g := gen{seed: cfg.seed}
	p := cfg.w.plan(g)
	res := &result{workload: cfg.w.name, seed: cfg.seed, e2e: map[string]metric{}, layers: map[string]metric{}}

	reps := setupReps
	if cfg.trace {
		reps = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var setups []float64
	var e *env
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(cfg, g, p, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.tearDown()
	bootMs := float64(e.srv.boot) / 1e6

	// Warm-up is a tenth of the window (3 s for the 30 s the issue names).
	window := time.Duration(cfg.seconds * float64(time.Second))
	warm := window / 10
	start := int64(time.Since(e.epoch)) + int64(20*time.Millisecond)
	ph := phases{warm0: start, win0: start + int64(warm), win1: start + int64(warm+window)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.drive(e.actors, ph)
	}()
	sleepUntil := func(t int64) { time.Sleep(time.Duration(t) - time.Since(e.epoch)) }
	sleepUntil(ph.win0)
	e0, err := e.readEdge()
	if err != nil {
		return nil, err
	}
	sleepUntil(ph.win1)
	e1, err := e.readEdge()
	if err != nil {
		return nil, err
	}
	<-done

	w := collectWindow(e.actors, p, ph)
	res.attempted, res.failed = w.attempted, w.failed
	for _, a := range e.actors {
		if a.firstErr != nil && res.firstErr == nil {
			res.firstErr = a.firstErr
		}
	}
	if w.ops == 0 {
		return nil, fmt.Errorf("no designer operation completed in the window: %v", res.firstErr)
	}

	// What concordd holds on disk against what designers stored in it.
	diskBytes, walBytes, err := dirBytes(e.dataDir)
	if err != nil {
		return nil, err
	}
	userBytes := e.seedLen
	var acked []versionSum
	for _, a := range e.actors {
		acked = append(acked, a.acked...)
		userBytes += int64(len(a.acked)) * chainBytes
	}

	// Crash and recover: SIGKILL, restart on the same directory, time until
	// it serves again. concordd runs no checkpointer, so every restart
	// replays the whole history and the repeats do the same work.
	for _, a := range e.actors {
		a.st.close()
		a.st = nil
	}
	var recov []float64
	want := len(e.seeded) + len(acked)
	for i := 0; i < recoveryReps; i++ {
		e.srv.kill()
		if e.srv, err = startServer(cfg.concordd, e.dataDir); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		recov = append(recov, e.srv.boot.Seconds())
		if e.srv.recovered < want {
			res.failed++
			res.firstErr = errors.Join(res.firstErr, fmt.Errorf("restart recovered %d DOVs, %d seeded + %d acknowledged", e.srv.recovered, len(e.seeded), len(acked)))
		}
	}
	audited, lost, err := audit(e.srv.addr, append(append([]versionSum(nil), e.seeded...), acked...))
	if err != nil && res.firstErr == nil {
		res.firstErr = err
	}
	res.attempted += audited
	res.failed += lost
	res.correct = res.failed == 0

	secs := float64(e1.at-e0.at) / 1e9
	ops := float64(w.ops)
	srvCPU := e1.srv.cpu() - e0.srv.cpu()
	var wire uint64
	for i := range e1.wire {
		wire += e1.wire[i].bytes - e0.wire[i].bytes
	}
	_, setupMed, _ := quartiles(setups)
	_, recovMed, _ := quartiles(recov)
	put := func(m map[string]metric, name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	put(res.e2e, "setup_s", setupMed, "s")
	put(res.e2e, "ops_per_s", ops/secs, "1/s")
	put(res.e2e, "checkout_p50_us", w.checkout.p50us(), "us")
	put(res.e2e, "cycle_p50_us", w.cycle.p50us(), "us")
	put(res.e2e, "server_cpu_us_per_op", us(srvCPU)/ops, "us")
	put(res.e2e, "client_cpu_us_per_op", us(e1.selfCPU-e0.selfCPU)/ops, "us")
	put(res.e2e, "wire_bytes_per_op", float64(wire)/ops, "B")
	put(res.e2e, "disk_bytes_per_user_byte", float64(diskBytes)/float64(userBytes), "ratio")
	put(res.e2e, "recovery_s", recovMed, "s")
	put(res.e2e, "server_rss_peak_mb", float64(e1.srv.rssPeakKiB)/1024, "MiB")

	// Tails and whatever else proved too unsteady for a bound (README,
	// "demoted"), plus the per-third detail behind the cycle figures.
	put(res.layers, "demoted.checkout_p99_us", w.checkout.p99us(), "us")
	put(res.layers, "demoted.cycle_p99_us", w.cycle.p99us(), "us")
	put(res.layers, "loadgen.sched_lag_p99_us", w.lag.p99us(), "us")
	put(res.layers, "loadgen.backlog_end", float64(w.backlog), "count")
	put(res.layers, "loadgen.max_rate_in_slo", w.maxRateInSLO, "1/s")
	for s := range w.step {
		put(res.layers, fmt.Sprintf("loadgen.cycle_p50_us_step%d", s+1), w.step[s].p50us(), "us")
		put(res.layers, fmt.Sprintf("loadgen.cycle_p99_us_step%d", s+1), w.step[s].p99us(), "us")
	}
	put(res.layers, "concordd.cpu_user_s", (e1.srv.user - e0.srv.user).Seconds(), "s")
	put(res.layers, "concordd.cpu_sys_s", (e1.srv.sys - e0.srv.sys).Seconds(), "s")
	put(res.layers, "concordd.ctx_switches_per_op", float64(e1.srv.ctxSwitches-e0.srv.ctxSwitches)/ops, "count")
	put(res.layers, "concordd.open_fds", float64(e1.srv.openFDs), "count")
	put(res.layers, "concordd.wal_bytes", float64(walBytes), "B")
	put(res.layers, "concordd.boot_ms", bootMs, "ms")
	var nm, dl, fl uint64
	for i := range e1.wire {
		nm += e1.wire[i].notModified - e0.wire[i].notModified
		dl += e1.wire[i].delta - e0.wire[i].delta
		fl += e1.wire[i].full - e0.wire[i].full
	}
	if tot := float64(nm + dl + fl); tot > 0 {
		put(res.layers, "txn_client.not_modified_share", float64(nm)/tot, "ratio")
		put(res.layers, "txn_client.delta_share", float64(dl)/tot, "ratio")
		put(res.layers, "txn_client.full_share", float64(fl)/tot, "ratio")
	}

	res.extras = append(res.extras,
		extra{"checkout_p50_us", "us", w.checkout.p50us(), w.checkout.n()},
		extra{tailName("checkout", &w.checkout), "us", w.checkout.p99us(), w.checkout.n()},
		extra{"cycle_p50_us", "us", w.cycle.p50us(), w.cycle.n()},
		extra{tailName("cycle", &w.cycle), "us", w.cycle.p99us(), w.cycle.n()},
	)
	if w.checkin.n() > 0 {
		res.extras = append(res.extras,
			extra{"checkin_p50_us", "us", w.checkin.p50us(), w.checkin.n()},
			extra{tailName("checkin", &w.checkin), "us", w.checkin.p99us(), w.checkin.n()},
		)
	}
	if w.other.n() > 0 {
		res.extras = append(res.extras, extra{"reviewer_cycle_p50_us", "us", w.other.p50us(), w.other.n()})
	}
	res.extras = append(res.extras,
		extra{"versions_audited", "count", float64(audited), 0},
		extra{"versions_acknowledged", "count", float64(len(acked)), 0},
	)
	if p.fromDue && w.lag.p99us() > 2000 {
		res.invalid = fmt.Sprintf("generator lag p99 %.0f us is above 2 ms: the schedule, not concordd, was late", w.lag.p99us())
	}

	if !cfg.trace {
		return res, checkReported(res.e2e, endToEnd, "end-to-end")
	}
	if err := tracedLayers(cfg, res, e.recs, w); err != nil {
		return nil, err
	}
	return res, checkReported(res.layers, perLayer, "per-layer")
}

// tailName says which percentile a p99 metric really read for this many
// samples (tailQ), e.g. checkout_p98.7_us.
func tailName(op string, s *samples) string {
	return fmt.Sprintf("%s_p%.3g_us", op, 100*tailQ(s.n()))
}

// windowStats is what the actors' logs say about the window.
type windowStats struct {
	ops, attempted, failed int
	checkout, checkin      samples
	cycle                  samples    // the cycles the cycle metrics are defined on
	other                  samples    // cycles of the actor they are not defined on
	step                   [3]samples // the same cycles, by third of the window
	lag                    samples
	traced, untraced       samples // service time of traced and untraced cycles
	backlog                int
	maxRateInSLO           float64
}

func collectWindow(actors [2]*actor, p plan, ph phases) windowStats {
	var w windowStats
	in := func(t int64) bool { return t >= ph.win0 && t < ph.win1 }
	for i, a := range actors {
		for _, o := range a.ops {
			if !in(o.end) || (o.kind != opCheckout && o.kind != opCheckin) {
				continue
			}
			w.attempted++
			if !o.ok {
				w.failed++
				continue
			}
			w.ops++
			d := time.Duration(o.end - o.start)
			if o.kind == opCheckout {
				w.checkout.add(d)
			} else {
				w.checkin.add(d)
			}
		}
		prevEnd := int64(0)
		for _, c := range a.cycles {
			t := timing{due: time.Duration(c.due), start: time.Duration(c.start), end: time.Duration(c.end)}
			pe := prevEnd
			prevEnd = c.end
			if c.step < 0 || !c.ok {
				continue
			}
			lat := t.end - t.start
			if p.fromDue {
				lat = t.latency()
			}
			if p.cycleActor >= 0 && p.cycleActor != i {
				w.other.add(lat)
				continue
			}
			w.lag.add(t.lag(time.Duration(pe)))
			w.step[c.step].add(lat)
			w.cycle.add(lat)
			if c.traced {
				w.traced.add(t.end - t.start)
			} else {
				w.untraced.add(t.end - t.start)
			}
		}
	}
	if p.fromDue {
		// Backlog at the end of a third: arrivals that were due in it and
		// had not started when it ended. Arrivals the run gave up on were
		// due and never started.
		a := actors[p.cycleActor]
		third := (ph.win1 - ph.win0) / 3
		for s := 0; s < 3; s++ {
			endOfStep := ph.win0 + int64(s+1)*third
			late := 0
			for _, c := range a.cycles {
				if c.due < endOfStep && c.start >= endOfStep {
					late++
				}
			}
			if s == 2 {
				late += a.undone
			}
			if late > w.backlog {
				w.backlog = late
			}
			if w.step[s].n() > 0 && w.step[s].quantile(tailQ(w.step[s].n())) <= sloP99 && late <= 1 {
				w.maxRateInSLO = teamRates[s]
			}
		}
	}
	return w
}

// audit reads back every version through two fresh volatile workstations and
// compares each with what the generator wrote. It returns how many versions
// it read and how many were missing or different.
func audit(addr string, all []versionSum) (read, lost int, err error) {
	sort.SliceStable(all, func(i, j int) bool { return all[i].da < all[j].da })
	type part struct {
		read, lost int
		err        error
	}
	parts := make(chan part, 2) // one send per auditor
	half := (len(all) + 1) / 2
	for i, share := range [][]versionSum{all[:half], all[half:]} {
		go func(i int, share []versionSum) {
			st, err := openStation(fmt.Sprintf("audit-%d", i), addr, "", nil)
			if err != nil {
				parts <- part{read: len(share), lost: len(share), err: err}
				return
			}
			defer st.close()
			p := part{}
			p.read, p.lost, p.err = auditShare(st, share)
			parts <- p
		}(i, share)
	}
	for i := 0; i < 2; i++ {
		p := <-parts
		read += p.read
		lost += p.lost
		if err == nil {
			err = p.err
		}
	}
	return read, lost, err
}

// auditShare checks versions out in DOPs of up to 64 from one DA, and keeps
// going past a bad one so the count of lost versions is complete.
func auditShare(st *station, share []versionSum) (read, lost int, firstErr error) {
	note := func(err error) {
		lost++
		if firstErr == nil {
			firstErr = err
		}
	}
	for len(share) > 0 {
		n := 1
		for n < len(share) && n < 64 && share[n].da == share[0].da {
			n++
		}
		batch := share[:n]
		share = share[n:]
		read += n
		d, err := st.begin(batch[0].da)
		if err != nil {
			lost += n - 1
			note(fmt.Errorf("audit begin %s: %w", batch[0].da, err))
			continue
		}
		for _, v := range batch {
			data, err := d.checkout(v.id, false)
			if err != nil {
				note(fmt.Errorf("audit %s: %w", v.id, err))
			} else if got := checksum(data); got != v.sum {
				note(fmt.Errorf("audit %s: content %x after restart, generator wrote %x", v.id, got, v.sum))
			}
		}
		if err := d.commit(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("audit commit: %w", err)
		}
	}
	return read, lost, firstErr
}
