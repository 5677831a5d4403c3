package main

// The layer ladder and the layer probes: the traced run's account of where
// the time and the allocations of one hot checkout and one durable checkin
// go. The ladder times the same operation through each layer's public
// functions at five depths:
//
//	1 repo         Get+EncodedObject / durable CheckinCleanup
//	2 txn_server   ServerTM.Checkout / Stage + participant prepare + commit
//	3 txn_client   ClientTM over rpc.InProc, concordd's handler chain
//	4 rpc          the same over loopback rpc.TCP, server in this process
//	5 concordd     the same against the subprocess
//
// and a layer's self time is the difference between consecutive depths. The
// step from 4 to 5 is not taken on trust: a null RPC (tm/health) is timed at
// both depths, the difference times the operation's round trips is the cost
// of the process boundary, and what that leaves unexplained of the
// end-to-end p50 is the ladder's residual. The
// probes time single functions of a layer that the ladder only passes
// through. None of this depends on the workload; it runs after the window of
// every traced run so the per-layer metrics come with every trace.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"concord/internal/binenc"
	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/feature"
	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/txn"
	"concord/internal/version"
	"concord/internal/vlsi"
	"concord/internal/wal"
)

// Call counts. The issue asks for the p50 of at least 2000 calls; calls that
// wait for an fsync get fewer so the ladder fits the run's time cap.
const (
	fastCalls    = 2000
	durableCalls = 400
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// measure runs fn n times on this goroutine and returns the median time of
// batch consecutive calls divided by batch, and the heap allocations per
// call. batch > 1 is for calls too short to time one by one. before, when
// not nil, runs untimed ahead of every batch; its allocations are counted,
// since MemStats cannot be read per call without stopping the world.
func measure(n, batch int, before, fn func()) (p50 time.Duration, allocs float64) {
	for i := 0; i < min(n/10+1, 50)*batch; i++ {
		if before != nil && i%batch == 0 {
			before()
		}
		fn() // warm
	}
	var s samples
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n/batch; i++ {
		if before != nil {
			before()
		}
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn()
		}
		s.add(time.Since(t0) / time.Duration(batch))
	}
	runtime.ReadMemStats(&m1)
	calls := (n / batch) * batch
	return s.quantile(0.5), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// cost is what one rung or probe found for one operation.
type cost struct {
	us     float64
	allocs float64
}

func measured(n, batch int, fn func()) cost {
	p50, allocs := measure(n, batch, nil, fn)
	return cost{us: us(p50), allocs: allocs}
}

// serverStack is concordd's primary assembled in this process: the same
// repository options, participant log, server-TM, cooperation manager (for
// the scope table), notifier and dedup/fence chain as cmd/concordd's
// newServerRole and runPrimary.
type serverStack struct {
	repo        *repo.Repository
	plog        *wal.Log
	stm         *txn.ServerTM
	participant *rpc.Participant
	notifier    *rpc.Notifier
	handler     rpc.DeadlineHandler // what concordd hands to ListenDeadline
}

func newServerStack(dir string, callbacks rpc.Transport) (*serverStack, error) {
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir, Sync: true})
	if err != nil {
		return nil, err
	}
	plog, err := wal.Open(filepath.Join(dir, "participant.wal"), wal.Options{SyncOnAppend: true})
	if err != nil {
		r.Close()
		return nil, err
	}
	s := &serverStack{repo: r, plog: plog}
	scopes := lock.NewScopeTable()
	s.stm = txn.NewServerTM(r, lock.NewManager(), scopes)
	if _, err := coop.NewCM(r, scopes, feature.NewRegistry()); err != nil {
		s.close()
		return nil, err
	}
	if s.participant, err = rpc.NewParticipant(s.stm, plog); err != nil {
		s.close()
		return nil, err
	}
	s.notifier = rpc.NewNotifier(rpc.NewClient(callbacks, "ladder-cb"), 0)
	s.stm.SetNotifier(s.notifier)
	r.SetChangeHook(s.stm.VersionChanged)
	s.handler = rpc.DedupDeadlineFenced(s.stm.DeadlineHandler(s.participant), rpc.EpochFence(r.Epoch))
	return s, nil
}

func (s *serverStack) close() {
	if s.notifier != nil {
		s.notifier.Close()
	}
	s.plog.Close() //nolint:errcheck // scratch state
	s.repo.Close() //nolint:errcheck // scratch state
}

// ladderInputs are the two design areas every rung works on: the hot set of
// hot_checkout and the chain of checkin_chain.
type ladderInputs struct {
	das  []seedDA
	hot  []string // version IDs of the hot set
	root seedObject
	rng  func() int // uniform index into hot
	next func() string
}

func newLadderInputs(g gen) *ladderInputs {
	in := &ladderInputs{}
	hot, _ := seedObjects(g, "lad-hot", hotObjects, hotBytes)
	chain, _ := seedObjects(g, "lad-chain", 1, chainBytes)
	in.das = []seedDA{{id: "lad-hot", objects: hot}, {id: "lad-chain", objects: chain}}
	for _, o := range hot {
		in.hot = append(in.hot, o.id)
	}
	in.root = chain[0]
	pick := g.rng("ladder/choices", 0)
	in.rng = func() int { return pick.Intn(len(in.hot)) }
	mut := g.rng("ladder/mutations", 0)
	tip := in.root.payload
	in.next = func() string {
		tip = mutate(mut, tip, mutateShare)
		return tip
	}
	return in
}

// rung is one depth's result. null is the null RPC, timed where a transport
// is in play.
type rung struct {
	checkout, checkin, null cost
}

// nullRPC times tm/health: a round trip through the whole handler chain that
// touches neither repository nor log.
func nullRPC(tm *txn.ClientTM) (c cost, err error) {
	c = measured(fastCalls, 1, func() {
		if _, _, e := tm.ServerHealth(); e != nil {
			err = e
		}
	})
	return
}

// ladderRepo is depth 1: the repository's read pair and its durable write.
func ladderRepo(dir string, in *ladderInputs) (r rung, putmeta cost, err error) {
	if err = seedDataDir(dir, in.das); err != nil {
		return
	}
	rp, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir, Sync: true})
	if err != nil {
		return
	}
	defer rp.Close()
	r.checkout = measured(fastCalls, 16, func() {
		id := version.ID(in.hot[in.rng()])
		v, gerr := rp.Get(id)
		enc, _, eerr := rp.EncodedObject(id)
		if gerr != nil || eerr != nil {
			err = fmt.Errorf("repo read %s: %v %v", id, gerr, eerr)
		}
		sink = [2]any{v, enc}
	})
	parent, n := version.ID(in.root.id), 0
	r.checkin = measured(durableCalls, 1, func() {
		n++
		v := &version.DOV{
			ID: version.ID(fmt.Sprintf("lad-chain/r%d", n)), DOT: vlsi.DOTNetlist, DA: "lad-chain",
			Parents: []version.ID{parent}, Object: netlist("lad-chain", in.next()), Status: version.StatusWorking,
		}
		if cerr := rp.CheckinCleanup(v, false, ""); cerr != nil {
			err = cerr
		}
		parent = v.ID
	})
	// PutMeta with a value the size of a staged checkin: what Prepare logs.
	staged := []byte(in.root.payload)
	putmeta = measured(durableCalls, 1, func() {
		n++
		if perr := rp.PutMeta(fmt.Sprintf("tm/staged/probe-%d", n%8), staged); perr != nil {
			err = perr
		}
	})
	return
}

// ladderServerTM is depth 2: direct server-TM calls over a durable repository
// and participant log, no client-TM and no transport.
func ladderServerTM(dir string, in *ladderInputs) (r rung, err error) {
	if err = seedDataDir(dir, in.das); err != nil {
		return
	}
	s, err := newServerStack(dir, rpc.NewInProc(rpc.FaultPlan{}))
	if err != nil {
		return
	}
	defer s.close()
	if err = s.stm.Begin("lad/dop-hot", "lad-hot"); err != nil {
		return
	}
	if err = s.stm.Begin("lad/dop-chain", "lad-chain"); err != nil {
		return
	}
	r.checkout = measured(fastCalls, 16, func() {
		v, cerr := s.stm.Checkout("lad/dop-hot", version.ID(in.hot[in.rng()]), false)
		if cerr != nil {
			err = cerr
		}
		sink = v
	})
	twoPC := s.participant.Handler()
	parent, n := version.ID(in.root.id), 0
	r.checkin = measured(durableCalls, 1, func() {
		n++
		txid := fmt.Sprintf("lad/dop-chain/ci%d", n)
		v := &version.DOV{
			ID: version.ID(fmt.Sprintf("lad/dop-chain/v%d", n)), DOT: vlsi.DOTNetlist, DA: "lad-chain",
			Parents: []version.ID{parent}, Object: netlist("lad-chain", in.next()), Status: version.StatusWorking,
		}
		if serr := s.stm.Stage("lad/dop-chain", txid, v, false, nil); serr != nil {
			err = serr
			return
		}
		if vote, perr := twoPC(rpc.MethodPrepare, []byte(txid)); perr != nil || string(vote) != "commit" {
			err = fmt.Errorf("prepare %s: %q %v", txid, vote, perr)
			return
		}
		if _, cerr := twoPC(rpc.MethodCommit, []byte(txid)); cerr != nil {
			err = cerr
		}
		parent = v.ID
	})
	return
}

// clientRung times the two operations through a client-TM, however it is
// connected: hot checkouts on hotTM (caches warm, DOPs of readsPerDOP
// checkouts as in hot_checkout) and the chain's checkin on chainTM (DOPs as
// in checkin_chain). Only the Checkout and Checkin calls are timed; Begin,
// the derive-checkout and Commit run between them, and their allocations
// are part of the per-call figure. rec, when not nil, gets an op span per
// Checkin.
func clientRung(hotTM, chainTM *txn.ClientTM, in *ladderInputs, rec *spanRecorder) (r rung, err error) {
	if r.checkout, err = hotCheckouts(hotTM, in, fastCalls); err != nil {
		return
	}
	var d *txn.DOP
	tip := version.ID(in.root.id)
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	before := func() {
		if d != nil {
			note(d.Commit())
		}
		var obj *catalog.Object
		var e error
		if d, e = chainTM.Begin("", "lad-chain"); e != nil {
			note(e)
			return
		}
		if obj, e = d.Checkout(tip, true); e != nil {
			note(e)
			return
		}
		obj.Set("data", catalog.Str(in.next()))
		note(d.SetWorkspace(obj))
	}
	p50, allocs := measure(durableCalls, 1, before, func() {
		if err != nil {
			return
		}
		t0 := time.Now()
		id, e := d.Checkin(version.StatusWorking, false)
		if rec != nil {
			rec.record(kindOp, "checkin", t0, time.Now())
		}
		note(e)
		tip = id
	})
	if d != nil {
		note(d.Commit())
	}
	r.checkin = cost{us: us(p50), allocs: allocs}
	return
}

// hotCheckouts warms tm's cache with the hot set and times n NotModified
// checkouts of it.
func hotCheckouts(tm *txn.ClientTM, in *ladderInputs, n int) (c cost, err error) {
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	warm, err := tm.Begin("", "lad-hot")
	if err != nil {
		return
	}
	for _, id := range in.hot {
		if _, err = warm.Checkout(version.ID(id), false); err != nil {
			return
		}
	}
	if err = warm.Commit(); err != nil {
		return
	}
	var d *txn.DOP
	left := 0
	before := func() {
		if left > 0 {
			return
		}
		if d != nil {
			note(d.Commit())
		}
		var e error
		d, e = tm.Begin("", "lad-hot")
		note(e)
		left = readsPerDOP
	}
	p50, allocs := measure(n, 1, before, func() {
		if err != nil {
			return
		}
		left--
		obj, e := d.Checkout(version.ID(in.hot[in.rng()]), false)
		note(e)
		sink = obj
	})
	if d != nil {
		note(d.Commit())
	}
	return cost{us: us(p50), allocs: allocs}, err
}

// inProcClient attaches a client-TM to addr on t as core.System attaches a
// workstation: reliable client, callback endpoint, optional disk.
func inProcClient(t *rpc.InProc, id, addr, dir string) (*txn.ClientTM, error) {
	client := rpc.NewClient(t, id)
	client.Backoff = 0
	tm, _, err := txn.NewClientTM(id, client, addr, dir)
	if err != nil {
		return nil, err
	}
	if err := t.Serve(id+"/cb", rpc.Dedup(tm.Cache().Handler())); err != nil {
		return nil, err
	}
	tm.SetCallbackAddr(id + "/cb")
	return tm, nil
}

// ladderInProc is depth 3, plus the two client-TM probes that need the same
// assembly: the cost of a recovery point (durable minus volatile hot
// checkout) and of an eviction (a miss into a full cache minus a miss into
// one with room).
func ladderInProc(dir string, in *ladderInputs, g gen) (r rung, recoveryPoint, evict cost, err error) {
	srvDir := filepath.Join(dir, "server")
	evictSet, _ := seedObjects(g, "lad-evict", 4*txn.DefaultCacheEntries, hotBytes)
	das := append(append([]seedDA(nil), in.das...), seedDA{id: "lad-evict", objects: evictSet})
	if err = seedDataDir(srvDir, das); err != nil {
		return
	}
	t := rpc.NewInProc(rpc.FaultPlan{})
	defer t.Close()
	s, err := newServerStack(srvDir, t)
	if err != nil {
		return
	}
	defer s.close()
	if err = rpc.ServeWithDeadline(t, "server", s.handler); err != nil {
		return
	}
	volatile, err := inProcClient(t, "lad-v", "server", "")
	if err != nil {
		return
	}
	defer volatile.Close()
	durable, err := inProcClient(t, "lad-d", "server", filepath.Join(dir, "lad-d"))
	if err != nil {
		return
	}
	defer durable.Close()
	if r, err = clientRung(volatile, durable, in, nil); err != nil {
		return
	}
	// The same hot checkout with recovery points on; its checkin half is
	// not needed, so the chain is left alone.
	dr, err := hotCheckouts(durable, in, fastCalls/2)
	if err != nil {
		return
	}
	recoveryPoint = cost{us: dr.us - r.checkout.us, allocs: dr.allocs - r.checkout.allocs}

	// A miss into a cache at its bound evicts; a miss into one an entry
	// short of it does not. Both scan the same number of entries for a delta
	// base and both pay the server's failed delta attempt, so the
	// difference is the eviction.
	miss := func(id string, prefill int, drop bool) (cost, error) {
		tm, cerr := inProcClient(t, id, "server", "")
		if cerr != nil {
			return cost{}, cerr
		}
		defer tm.Close()
		var merr error
		d, berr := tm.Begin("", "lad-evict")
		if berr != nil {
			return cost{}, berr
		}
		for _, o := range evictSet[:prefill] {
			if _, merr = d.Checkout(version.ID(o.id), false); merr != nil {
				return cost{}, merr
			}
		}
		rest := evictSet[txn.DefaultCacheEntries:]
		i := 0
		c := measured(fastCalls, 1, func() {
			// Walking the rest in order never meets an entry still cached:
			// every checkout is a miss and a full transfer.
			oid := version.ID(rest[i%len(rest)].id)
			i++
			if _, cerr := d.Checkout(oid, false); cerr != nil {
				merr = cerr
			}
			if drop {
				tm.Cache().Drop(oid)
			}
		})
		if cerr := d.Commit(); merr == nil {
			merr = cerr
		}
		return c, merr
	}
	full, err := miss("lad-full", txn.DefaultCacheEntries, false)
	if err != nil {
		return
	}
	room, err := miss("lad-room", txn.DefaultCacheEntries-1, true)
	if err != nil {
		return
	}
	evict = cost{us: full.us - room.us, allocs: full.allocs - room.allocs}
	return
}

// ladderTCP is depth 4: depth 3 with loopback sockets between the client-TMs
// and the server stack, all still in this process.
func ladderTCP(dir string, in *ladderInputs) (r rung, err error) {
	srvDir := filepath.Join(dir, "server")
	if err = seedDataDir(srvDir, in.das); err != nil {
		return
	}
	srvT := rpc.NewTCP()
	defer srvT.Close()
	s, err := newServerStack(srvDir, srvT)
	if err != nil {
		return
	}
	defer s.close()
	addr, err := srvT.ListenDeadline("127.0.0.1:0", s.handler)
	if err != nil {
		return
	}
	volatile, err := openStation("lad-v", addr, "", nil)
	if err != nil {
		return
	}
	defer volatile.close()
	durable, err := openStation("lad-d", addr, filepath.Join(dir, "lad-d"), nil)
	if err != nil {
		return
	}
	defer durable.close()
	if r, err = clientRung(volatile.tm, durable.tm, in, nil); err != nil {
		return
	}
	r.null, err = nullRPC(volatile.tm)
	return
}

// ladderConcordd is depth 5: the same two loops against the subprocess, one
// client at a time, the durable one traced so the checkin's wire methods get
// their own figures.
func ladderConcordd(cfg runConfig, dir string, in *ladderInputs) (r rung, tr traceSummary, err error) {
	srvDir := filepath.Join(dir, "server")
	if err = seedDataDir(srvDir, in.das); err != nil {
		return
	}
	srv, err := startServer(cfg.concordd, srvDir)
	if err != nil {
		return
	}
	defer srv.kill()
	volatile, err := openStation("lad-v", srv.addr, "", nil)
	if err != nil {
		return
	}
	defer volatile.close()
	rec := newSpanRecorder(time.Now(), 8*durableCalls)
	durable, err := openStation("lad-d", srv.addr, filepath.Join(dir, "lad-d"), rec)
	if err != nil {
		return
	}
	defer durable.close()
	rec.startCycle(true) // one long "cycle": the rung's spans are told apart by name
	if r, err = clientRung(volatile.tm, durable.tm, in, rec); err != nil {
		return
	}
	tr = summarize([]*spanRecorder{rec})
	r.null, err = nullRPC(volatile.tm)
	return
}

// probeCodecs times binenc and catalog on the workloads' own payload shapes.
func probeCodecs(g gen, put func(name string, v float64, unit string)) error {
	rng := g.rng("probe/codec", 0)
	obj4k := netlist("probe", payload(rng, hotBytes))
	obj16k := netlist("probe", payload(rng, chainBytes))
	v, _ := obj16k.Get("data")
	obj16kNext := netlist("probe", mutate(rng, v.S, mutateShare))
	obj64k := netlist("probe", payload(rng, bulkBytes))
	obj64kOther := netlist("probe", payload(rng, bulkBytes))
	enc := func(o *catalog.Object) []byte {
		b, err := catalog.EncodeObject(o)
		if err != nil {
			panic(err) // a netlist with two string attributes always encodes
		}
		return b
	}
	e4, e16, e16n, e64, e64o := enc(obj4k), enc(obj16k), enc(obj16kNext), enc(obj64k), enc(obj64kOther)

	delta := binenc.Delta(e16, e16n)
	if len(delta) >= len(e16n) {
		return fmt.Errorf("probe: delta of a 1%% mutation is %d bytes of %d", len(delta), len(e16n))
	}
	c := measured(fastCalls, 1, func() { sink = binenc.Delta(e16, e16n) })
	put("binenc.delta_us", c.us, "us")
	c = measured(fastCalls, 1, func() { sink, _ = binenc.ApplyDelta(e16, delta) })
	put("binenc.apply_delta_us", c.us, "us")
	c = measured(fastCalls/4, 1, func() { sink = binenc.Delta(e64, e64o) })
	put("binenc.delta_miss_us", c.us, "us")

	c = measured(fastCalls, 4, func() { sink, _ = catalog.EncodeObject(obj4k) })
	put("catalog.encode_us", c.us, "us")
	c = measured(fastCalls, 1, func() { sink, _ = catalog.EncodeObject(obj64k) })
	put("catalog.encode_64k_us", c.us, "us")
	c = measured(fastCalls, 4, func() { sink, _ = catalog.DecodeObject(e4) })
	put("catalog.decode_us", c.us, "us")
	put("catalog.decode_allocs", c.allocs, "count")
	c = measured(fastCalls, 1, func() { sink, _ = catalog.DecodeObject(e64) })
	put("catalog.decode_64k_us", c.us, "us")
	c = measured(fastCalls, 16, func() { sink = obj4k.Clone() })
	put("catalog.clone_allocs", c.allocs, "count")
	c = measured(fastCalls, 4, func() { sink = catalog.HashEncoded(e4) })
	put("catalog.hash_us", c.us, "us")
	c = measured(fastCalls, 1, func() { sink = catalog.HashEncoded(e64) })
	put("catalog.hash_64k_us", c.us, "us")
	return nil
}

// probeWAL times forced appends of a record the size checkin_chain logs, the
// group-commit factor with two appenders, and replay.
func probeWAL(dir string, put func(name string, v float64, unit string)) error {
	const probeType = wal.RecordType(0x7f)
	record := make([]byte, chainBytes+256)
	l, err := wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{SyncOnAppend: true})
	if err != nil {
		return err
	}
	var s samples
	for i := 0; i < fastCalls; i++ {
		t0 := time.Now()
		if _, err := l.Append(probeType, "probe", record); err != nil {
			l.Close()
			return err
		}
		s.add(time.Since(t0))
	}
	put("wal.append_sync_p50_us", s.p50us(), "us")
	put("wal.append_sync_p99_us", s.p99us(), "us")
	a0, _, s0 := l.Stats()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < fastCalls/2; i++ {
				if _, err := l.Append(probeType, "probe", record); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	a1, _, s1 := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	put("wal.syncs_per_append_c2", float64(s1-s0)/float64(a1-a0), "ratio")

	// Replay what was just written: 2 x fastCalls records, scaled to 10k.
	l, err = wal.Open(filepath.Join(dir, "probe.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	n := 0
	t0 := time.Now()
	if err := l.Replay(func(wal.Record) error { n++; return nil }); err != nil {
		return err
	}
	if n != 2*fastCalls {
		return fmt.Errorf("probe: replayed %d records of %d", n, 2*fastCalls)
	}
	put("wal.replay_ms_per_10k", float64(time.Since(t0))/1e6*10000/float64(n), "ms")
	return nil
}

// probeRepoRestart times Open and Checkpoint on a directory of liveDOVs
// versions of hotBytes each.
func probeRepoRestart(dir string, g gen, put func(name string, v float64, unit string)) error {
	const liveDOVs = 2000
	objs, _ := seedObjects(g, "probe-open", liveDOVs, hotBytes)
	if err := seedDataDir(dir, []seedDA{{id: "probe-open", objects: objs}}); err != nil {
		return err
	}
	t0 := time.Now()
	r, err := repo.Open(vlsi.NewCatalog(), repo.Options{Dir: dir, Sync: true})
	if err != nil {
		return err
	}
	defer r.Close()
	opened := time.Since(t0)
	if r.DOVCount() != liveDOVs {
		return fmt.Errorf("probe: reopened %d DOVs of %d", r.DOVCount(), liveDOVs)
	}
	put("repo.open_ms_per_10k", float64(opened)/1e6*10000/liveDOVs, "ms")
	t0 = time.Now()
	if err := r.Checkpoint(); err != nil {
		return err
	}
	put("repo.checkpoint_ms", float64(time.Since(t0))/1e6, "ms")
	return nil
}

// probeLock times an uncontended shared acquire and release.
func probeLock(put func(name string, v float64, unit string)) error {
	m := lock.NewManager()
	var err error
	c := measured(16*fastCalls, 16, func() {
		if aerr := m.Acquire("probe/dop", "dov/probe", lock.S, time.Second); aerr != nil {
			err = aerr
		}
		if rerr := m.Release("probe/dop", "dov/probe"); rerr != nil {
			err = rerr
		}
	})
	put("lock.acquire_release_ns", c.us*1e3, "ns")
	put("lock.acquire_release_allocs", c.allocs, "count")
	return err
}

// nullResource votes yes and does nothing: the 2PC engine's own cost.
type nullResource struct{}

func (nullResource) Prepare(string) (rpc.Vote, error) { return rpc.VoteCommit, nil }
func (nullResource) Commit(string) error              { return nil }
func (nullResource) Abort(string) error               { return nil }

// probeRPC times the transport and the exactly-once layer without any
// transaction manager behind them.
func probeRPC(put func(name string, v float64, unit string)) error {
	echo := func(_ string, payload []byte) ([]byte, error) { return append([]byte(nil), payload...), nil }
	srv := rpc.NewTCP()
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0", echo)
	if err != nil {
		return err
	}
	tr := rpc.NewTCP()
	tr.PoolSize = 1
	defer tr.Close()
	small, big := make([]byte, 64), make([]byte, bulkBytes)
	c := measured(fastCalls, 1, func() { sink, err = tr.Call(addr, "echo", small) })
	if err != nil {
		return err
	}
	put("rpc.tcp_echo_p50_us", c.us, "us")
	put("rpc.tcp_echo_allocs", c.allocs, "count")
	c = measured(fastCalls, 1, func() { sink, err = tr.Call(addr, "echo", big) })
	if err != nil {
		return err
	}
	put("rpc.tcp_echo_64k_p50_us", c.us, "us")

	// Dedup and fence round a no-op handler, against the same reliable
	// client and in-process transport without them: the difference is the
	// exactly-once layer's own cost per call.
	noop := func(time.Time, string, []byte) ([]byte, error) { return nil, nil }
	t := rpc.NewInProc(rpc.FaultPlan{})
	defer t.Close()
	if err := t.ServeDeadline("bare", noop); err != nil {
		return err
	}
	if err := t.ServeDeadline("dedup", rpc.DedupDeadlineFenced(noop, rpc.EpochFence(func() uint64 { return 1 }))); err != nil {
		return err
	}
	client := rpc.NewClient(t, "probe")
	client.Backoff = 0
	bare := measured(16*fastCalls, 16, func() { sink, err = client.Call("bare", "noop", small) })
	dedup := measured(16*fastCalls, 16, func() { sink, err = client.Call("dedup", "noop", small) })
	if err != nil {
		return err
	}
	put("rpc.dedup_ns", (dedup.us-bare.us)*1e3, "ns")
	put("rpc.dedup_allocs", dedup.allocs-bare.allocs, "count")

	part, err := rpc.NewParticipant(nullResource{}, nil)
	if err != nil {
		return err
	}
	if err := t.Serve("participant", rpc.Dedup(part.Handler())); err != nil {
		return err
	}
	coord, err := rpc.NewCoordinator(client, nil)
	if err != nil {
		return err
	}
	n := 0
	c = measured(fastCalls, 1, func() {
		n++
		if out, cerr := coord.Commit(fmt.Sprintf("probe/tx%d", n), []string{"participant"}); cerr != nil || out != rpc.OutcomeCommitted {
			err = fmt.Errorf("2pc probe: %v %v", out, cerr)
		}
	})
	put("rpc.twophase_us", c.us, "us")
	return err
}

// budgetRow is one layer's line of the budget table.
type budgetRow struct {
	layer      string
	us, allocs float64 // self
}

// budgetTable is the ladder printed as the roadmap's latency budget: self
// time and self allocations per layer, and what they leave unexplained of
// the end-to-end p50.
type budgetTable struct {
	op       string
	rows     []budgetRow
	e2eUs    float64
	residual float64 // 1 - sum of self times / end-to-end p50
}

// newBudget builds the table from an operation's cost at depths 1 to 4, the
// cost of one process-boundary crossing (null RPC at depth 5 minus depth 4),
// the round trips the operation makes and its end-to-end p50 at depth 5.
func newBudget(op string, depths [4]cost, crossing float64, roundTrips int, e2eUs float64) *budgetTable {
	layers := [...]string{"repo", "txn_server", "txn_client (in-proc, dedup+fence)", "rpc (loopback TCP, one process)"}
	b := &budgetTable{op: op, e2eUs: e2eUs}
	prev, sum := cost{}, 0.0
	for i, d := range depths {
		b.rows = append(b.rows, budgetRow{layer: layers[i], us: d.us - prev.us, allocs: d.allocs - prev.allocs})
		prev = d
	}
	// The subprocess's allocations are not this process's to count.
	b.rows = append(b.rows, budgetRow{layer: fmt.Sprintf("process boundary (%d round trips)", roundTrips), us: crossing * float64(roundTrips)})
	for _, r := range b.rows {
		sum += r.us
	}
	b.residual = 1 - sum/e2eUs
	return b
}

func (b *budgetTable) print(out io.Writer) {
	fmt.Fprintf(out, "  -- budget: %s, one client, p50 (self = this depth minus the one before)\n", b.op)
	byUs, byAllocs := 0, 0
	for i, r := range b.rows {
		fmt.Fprintf(out, "     %-36s %10.1f us %9.1f allocs\n", r.layer, r.us, r.allocs)
		if r.us > b.rows[byUs].us {
			byUs = i
		}
		if r.allocs > b.rows[byAllocs].allocs {
			byAllocs = i
		}
	}
	fmt.Fprintf(out, "     %-36s %10.1f us\n", "unexplained", b.residual*b.e2eUs)
	fmt.Fprintf(out, "     %-36s %10.1f us   (residual share %.3f)\n", "end to end against concordd", b.e2eUs, b.residual)
	fmt.Fprintf(out, "     largest self time: %s; most allocations: %s\n", b.rows[byUs].layer, b.rows[byAllocs].layer)
}

// tracedLayers turns a traced run into the per-layer metrics: the window's
// spans, then the ladder and the probes.
func tracedLayers(cfg runConfig, res *result, recs []*spanRecorder, w windowStats) error {
	put := func(name string, v float64, unit string) { res.layers[name] = metric{Value: v, Unit: unit} }

	sum := summarize(recs)
	for _, m := range []string{txn.MethodBegin, txn.MethodCheckout, txn.MethodAbortDOP} {
		if s := sum.rpc[m]; s != nil {
			put("trace.rpc_us."+metricName(m), s.p50us(), "us")
		}
	}
	if s := sum.opSelf["checkout"]; s != nil {
		put("trace.client_self_us.checkout", s.p50us(), "us")
	}
	if sum.cycles > 0 {
		put("trace.calls_per_cycle", float64(sum.rpcs)/float64(sum.cycles), "count")
	}
	if w.traced.n() > 0 && w.untraced.n() > 0 {
		put("trace.overhead_share", 1-w.untraced.p50us()/w.traced.p50us(), "ratio")
	}
	// Wire methods only some workloads call show in the report, not in the
	// metric list (which is the same for every workload).
	var others []string
	for m := range sum.rpc {
		if _, listed := res.layers["trace.rpc_us."+metricName(m)]; !listed {
			others = append(others, m)
		}
	}
	sort.Strings(others)
	for _, m := range others {
		res.extras = append(res.extras, extra{"window.rpc_us." + metricName(m), "us", sum.rpc[m].p50us(), sum.rpc[m].n()})
	}
	if s := sum.opSelf["checkin"]; s != nil {
		res.extras = append(res.extras, extra{"window.client_self_us.checkin", "us", s.p50us(), s.n()})
	}
	path, err := writeTrace(cfg.outDir, cfg.w.name, cfg.seed, recs)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.tracePath = path

	dir := filepath.Join(cfg.scratch, fmt.Sprintf("ladder-%d", os.Getpid()))
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	sub := func(name string) string { return filepath.Join(dir, name) }
	for _, name := range []string{"wal", "restart"} {
		if err := os.MkdirAll(sub(name), 0o755); err != nil {
			return err
		}
	}
	g := gen{seed: cfg.seed}
	in := newLadderInputs(g)

	d1, putmeta, err := ladderRepo(sub("d1"), in)
	if err != nil {
		return fmt.Errorf("ladder depth 1: %w", err)
	}
	d2, err := ladderServerTM(sub("d2"), in)
	if err != nil {
		return fmt.Errorf("ladder depth 2: %w", err)
	}
	d3, recoveryPoint, evict, err := ladderInProc(sub("d3"), in, g)
	if err != nil {
		return fmt.Errorf("ladder depth 3: %w", err)
	}
	d4, err := ladderTCP(sub("d4"), in)
	if err != nil {
		return fmt.Errorf("ladder depth 4: %w", err)
	}
	d5, ladTrace, err := ladderConcordd(cfg, sub("d5"), in)
	if err != nil {
		return fmt.Errorf("ladder depth 5: %w", err)
	}

	put("repo.get_encoded_us", d1.checkout.us, "us")
	put("repo.get_encoded_allocs", d1.checkout.allocs, "count")
	put("repo.checkin_us", d1.checkin.us, "us")
	put("repo.checkin_allocs", d1.checkin.allocs, "count")
	put("repo.putmeta_us", putmeta.us, "us")
	put("txn_server.checkout_us", d2.checkout.us, "us")
	put("txn_server.checkout_allocs", d2.checkout.allocs, "count")
	put("txn_server.checkin_us", d2.checkin.us, "us")
	put("txn_client.checkout_inproc_us", d3.checkout.us, "us")
	put("txn_client.checkout_inproc_allocs", d3.checkout.allocs, "count")
	put("txn_client.checkin_inproc_us", d3.checkin.us, "us")
	put("txn_client.checkin_inproc_allocs", d3.checkin.allocs, "count")
	put("txn_client.recovery_point_us", recoveryPoint.us, "us")
	put("txn_client.cache_evict_us", evict.us, "us")
	put("rpc.checkout_tcp_us", d4.checkout.us, "us")
	put("rpc.checkout_tcp_allocs", d4.checkout.allocs, "count")
	put("rpc.checkin_tcp_us", d4.checkin.us, "us")
	put("ladder.checkout_concordd_us", d5.checkout.us, "us")
	put("ladder.checkin_concordd_us", d5.checkin.us, "us")
	for _, m := range []string{txn.MethodStage, rpc.MethodPrepare, rpc.MethodCommit} {
		if s := ladTrace.rpc[m]; s != nil {
			put("ladder.rpc_us."+metricName(m), s.p50us(), "us")
		}
	}

	put("rpc.null_tcp_us", d4.null.us, "us")
	put("ladder.null_concordd_us", d5.null.us, "us")
	crossing := d5.null.us - d4.null.us
	// A checkout is one round trip; a checkin is stage, prepare and commit.
	co := newBudget("hot checkout", [4]cost{d1.checkout, d2.checkout, d3.checkout, d4.checkout}, crossing, 1, d5.checkout.us)
	ci := newBudget("durable checkin", [4]cost{d1.checkin, d2.checkin, d3.checkin, d4.checkin}, crossing, 3, d5.checkin.us)
	put("ladder.checkout_residual_share", co.residual, "ratio")
	put("ladder.checkin_residual_share", ci.residual, "ratio")
	res.budgets = []*budgetTable{co, ci}
	if s := ladTrace.opSelf["checkin"]; s != nil {
		put("ladder.client_self_us.checkin", s.p50us(), "us")
	}

	if err := probeCodecs(g, put); err != nil {
		return err
	}
	if err := probeWAL(sub("wal"), put); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := probeRepoRestart(sub("restart"), g, put); err != nil {
		return fmt.Errorf("repo restart probe: %w", err)
	}
	if err := probeLock(put); err != nil {
		return fmt.Errorf("lock probe: %w", err)
	}
	if err := probeRPC(put); err != nil {
		return fmt.Errorf("rpc probe: %w", err)
	}
	return nil
}

// metricName turns a wire method into a metric name part: tm/abort-dop ->
// tm_abort_dop.
func metricName(method string) string {
	b := []byte(method)
	for i, c := range b {
		if c == '/' || c == '-' {
			b[i] = '_'
		}
	}
	return string(b)
}
