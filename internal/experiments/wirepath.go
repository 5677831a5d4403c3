package experiments

import (
	"fmt"
	"sync"
	"time"

	"concord/internal/catalog"
	"concord/internal/repo"
	"concord/internal/rpc"
	"concord/internal/server"
	"concord/internal/txn"
	"concord/internal/version"
)

// WirePathMode selects what one RunWireScaling configuration measures.
type WirePathMode int

// Wire-path measurement modes.
const (
	// WireHot runs checkouts with warm workstation caches: every round trip
	// is a small NotModified handshake, so per-call wire overhead
	// (connection setup, framing, correlation) dominates.
	WireHot WirePathMode = iota + 1
	// WireCold drops the cache entry after every checkout, so each round
	// transfers the full mid-size payload.
	WireCold
	// WireBig is WireCold with a multi-megabyte design object: every
	// checkout streams the payload as a chunk sequence over the socket.
	WireBig
)

// String names the mode for report rows.
func (m WirePathMode) String() string {
	switch m {
	case WireHot:
		return "hot"
	case WireCold:
		return "cold"
	case WireBig:
		return "big"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Payload sizes of the E18 design objects.
const (
	e18ColdBytes = 64 << 10
	e18BigBytes  = 3 << 20
)

// WireScalingResult is the outcome of one RunWireScaling configuration.
type WireScalingResult struct {
	// Readers is the concurrent workstation count.
	Readers int
	// Checkouts is the total checkout count across all workstations.
	Checkouts int
	// Bytes is the design-object payload size each cold checkout moves.
	Bytes int
	// Elapsed is the wall-clock time of the parallel phase.
	Elapsed time.Duration
}

// OpsPerSec reports aggregate checkout throughput.
func (r WireScalingResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Checkouts) / r.Elapsed.Seconds()
}

// e18RegisterTypes declares the E18 catalog: one DOT with a single bulk
// attribute so payload size is directly controlled.
func e18RegisterTypes(c *catalog.Catalog) error {
	return c.Register(&catalog.DOT{
		Name: "e18blob",
		Attrs: []catalog.AttrDef{
			{Name: "name", Kind: catalog.KindString, Required: true},
			{Name: "data", Kind: catalog.KindString},
		},
	})
}

func e18Object(da string, payloadBytes int) *catalog.Object {
	data := make([]byte, payloadBytes)
	for i := range data {
		data[i] = 'a' + byte(i%26)
	}
	return catalog.NewObject("e18blob").
		Set("name", catalog.Str(da)).
		Set("data", catalog.Str(string(data)))
}

// site18 is one workstation's assembly in E18.
type site18 struct {
	tm  *txn.ClientTM
	da  string
	dov version.ID
}

// RunWireScaling boots one server behind a real loopback TCP listener and n
// workstation client-TMs, each over its own socket transport, seeds one
// design object per workstation's DA, then has every workstation perform
// `rounds` checkouts in parallel over the multiplexed per-peer connection
// pool (DESIGN.md §5.2). Used by E18.
func RunWireScaling(n, rounds int, mode WirePathMode) (WireScalingResult, error) {
	res := WireScalingResult{Readers: n, Bytes: e18ColdBytes}
	if mode == WireBig {
		res.Bytes = e18BigBytes
	}
	cat := catalog.New()
	if err := e18RegisterTypes(cat); err != nil {
		return res, err
	}
	r, err := repo.Open(cat, repo.Options{})
	if err != nil {
		return res, err
	}
	defer r.Close()
	srv := rpc.NewTCP()
	defer srv.Close()
	site, err := server.Assemble(r, rpc.NewClient(srv, "e18-cb"), server.Options{})
	if err != nil {
		return res, err
	}
	defer site.Close()
	addr, err := srv.ListenDeadline("127.0.0.1:0", site.Handler())
	if err != nil {
		return res, err
	}

	sites := make([]*site18, n)
	transports := make([]*rpc.TCP, n)
	defer func() {
		for _, s := range sites {
			if s != nil {
				s.tm.Close()
			}
		}
		for _, tr := range transports {
			if tr != nil {
				tr.Close()
			}
		}
	}()
	for i := range sites {
		da := fmt.Sprintf("da-%d", i)
		if err := r.CreateGraph(da); err != nil {
			return res, err
		}
		tr := rpc.NewTCP()
		transports[i] = tr
		client := rpc.NewClient(tr, fmt.Sprintf("ws-%d", i))
		client.Backoff = time.Millisecond
		tm, _, err := txn.NewClientTM(fmt.Sprintf("ws-%d", i), client, addr, "")
		if err != nil {
			return res, err
		}
		tm.StartHeartbeat(0) // the readers' DOPs outlive a slow run's lease
		dop, err := tm.Begin("", da)
		if err != nil {
			tm.Close()
			return res, err
		}
		if err := dop.SetWorkspace(e18Object(da, res.Bytes)); err != nil {
			tm.Close()
			return res, err
		}
		root, err := dop.Checkin(version.StatusWorking, true)
		if err != nil {
			tm.Close()
			return res, err
		}
		if err := dop.Commit(); err != nil {
			tm.Close()
			return res, err
		}
		sites[i] = &site18{tm: tm, da: da, dov: root}
	}

	// Prepare one long-lived DOP per workstation; cold modes forget the
	// seeding checkin's cache entry so the first round is a full transfer.
	dops := make([]*txn.DOP, n)
	for i, s := range sites {
		d, err := s.tm.Begin("", s.da)
		if err != nil {
			return res, err
		}
		if mode != WireHot {
			s.tm.Cache().Drop(s.dov)
		}
		dops[i] = d
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for i, s := range sites {
		wg.Add(1)
		go func(i int, s *site18) {
			defer wg.Done()
			for rd := 0; rd < rounds; rd++ {
				if _, err := dops[i].Checkout(s.dov, false); err != nil {
					errs <- fmt.Errorf("%s round %d: %w", s.da, rd, err)
					return
				}
				if mode != WireHot {
					s.tm.Cache().Drop(s.dov)
				}
			}
		}(i, s)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return res, err
	}
	res.Checkouts = n * rounds
	return res, nil
}

// e18DialPerCallBaseline pins the seed transport's behaviour (dial, one
// request/response in the same frame format, close) in checkouts/s per mode
// and reader count, as measured when the multiplexed transport landed (rev
// e92f1531a4d7, EXPERIMENTS.md E18). The comparison is settled, so the
// connect-per-call path no longer ships.
var e18DialPerCallBaseline = map[WirePathMode]map[int]float64{
	WireHot:  {1: 9269, 2: 11100, 4: 10269, 8: 10591},
	WireCold: {1: 3802, 2: 4897, 4: 5148, 8: 4567},
	WireBig:  {1: 133, 2: 127, 4: 92, 8: 102},
}

// E18WirePath measures end-to-end checkout throughput over real loopback
// sockets through the multiplexed binenc wire protocol (persistent per-peer
// connection pools, pipelined request/response correlation, chunked bulk
// transfer — DESIGN.md §5.2), beside the pinned figures of the seed
// transport's connect-per-call behaviour. Checkout is the
// dominant operation of the paper's Sect. 5.1 workstation/server loop, so
// per-call wire overhead multiplies into everything.
func E18WirePath() (Report, error) {
	return e18WirePath([]int{1, 2, 4, 8}, 400, 120, 8)
}

// e18WirePath parameterizes E18 so CI can run a reduced configuration.
func e18WirePath(readerCounts []int, hotRounds, coldRounds, bigRounds int) (Report, error) {
	rep := Report{
		ID:     "E18",
		Title:  "multiplexed wire protocol vs connect-per-call over real sockets (DESIGN.md §5.2)",
		Header: []string{"mode", "readers", "checkouts", "payload B", "connect-per-call ops/s (pinned)", "multiplexed ops/s", "speedup"},
	}
	for _, mode := range []WirePathMode{WireHot, WireCold, WireBig} {
		rounds := hotRounds
		switch mode {
		case WireCold:
			rounds = coldRounds
		case WireBig:
			rounds = bigRounds
		}
		for _, n := range readerCounts {
			mux, err := RunWireScaling(n, rounds, mode)
			if err != nil {
				return rep, fmt.Errorf("E18 %s multiplexed N=%d: %w", mode, n, err)
			}
			cpc := e18DialPerCallBaseline[mode][n]
			rep.Rows = append(rep.Rows, []string{
				mode.String(), d(n), d(mux.Checkouts), d(mux.Bytes),
				f(cpc), f(mux.OpsPerSec()),
				fmt.Sprintf("%.2fx", mux.OpsPerSec()/cpc),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"connect-per-call = the seed TCP transport's behaviour (dial, one request/response, close) in the same frame format; pinned figures (rev e92f1531a4d7), not re-measured",
		"multiplexed = persistent per-peer connection pool, pipelined request IDs, chunked streaming (DESIGN.md §5.2)",
		fmt.Sprintf("hot = warm cache (NotModified handshake per checkout); cold = full %d KiB transfer; big = full %d MiB transfer streamed in %d KiB chunks",
			e18ColdBytes>>10, e18BigBytes>>20, rpc.DefaultChunkBytes>>10),
		"all traffic crosses real loopback TCP sockets; one transport per workstation, one listener on the server",
	)
	return rep, nil
}
