package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"concord/internal/catalog"
	"concord/internal/coop"
	"concord/internal/core"
	"concord/internal/version"
)

// CacheDeltaResult is the outcome of one RunCacheDelta configuration: the
// wire cost of moving one design object through the checkout/checkin cycle
// with the workstation cache on (DESIGN.md §4).
type CacheDeltaResult struct {
	// ObjectBytes is the canonical encoding size of the design object.
	ObjectBytes int
	// EditedParts / TotalParts describe the edit between the two versions.
	EditedParts, TotalParts int
	// ColdBytes is the response size of a cold (full) checkout.
	ColdBytes uint64
	// NotModifiedBytes is the response size of re-checking out a cached,
	// unmodified version.
	NotModifiedBytes uint64
	// CheckinDeltaBytes is the staged payload shipped for the edited
	// version (delta against the cached parent).
	CheckinDeltaBytes uint64
	// CheckoutDeltaBytes is the response size of checking out the edited
	// version on a workstation that caches its parent.
	CheckoutDeltaBytes uint64
	// ColdLatency / CachedLatency time the cold and the NotModified
	// checkout calls.
	ColdLatency, CachedLatency time.Duration
}

// e14RegisterTypes declares the E14 catalog: a cell library whose parts make
// the object large and the edits local.
func e14RegisterTypes(c *catalog.Catalog) error {
	if err := c.Register(&catalog.DOT{
		Name: "e14cell",
		Attrs: []catalog.AttrDef{
			{Name: "name", Kind: catalog.KindString, Required: true},
			{Name: "data", Kind: catalog.KindString},
		},
	}); err != nil {
		return err
	}
	return c.Register(&catalog.DOT{
		Name:       "e14lib",
		Attrs:      []catalog.AttrDef{{Name: "title", Kind: catalog.KindString, Required: true}},
		Components: []catalog.ComponentDef{{Name: "cells", DOT: "e14cell"}},
	})
}

// e14Object builds a library of `parts` cells carrying `partBytes` of data
// each (deterministically pseudo-random, so deltas cannot cheat via
// repetition).
func e14Object(parts, partBytes int, seed int64) *catalog.Object {
	rng := rand.New(rand.NewSource(seed))
	lib := catalog.NewObject("e14lib").Set("title", catalog.Str("E14"))
	buf := make([]byte, partBytes)
	for i := 0; i < parts; i++ {
		for j := range buf {
			buf[j] = 'a' + byte(rng.Intn(26))
		}
		cell := catalog.NewObject("e14cell").
			Set("name", catalog.Str(fmt.Sprintf("c%05d", i))).
			Set("data", catalog.Str(string(buf)))
		lib.AddPart("cells", cell)
	}
	return lib
}

// e14DA is the design area every E14 run works in.
const e14DA = "da-e14"

// e14System boots an in-process system with the E14 catalog, one started
// design area and two workstations.
func e14System() (sys *core.System, ws1, ws2 *core.Workstation, err error) {
	sys, err = core.NewSystem(core.Options{RegisterTypes: e14RegisterTypes})
	if err != nil {
		return nil, nil, nil, err
	}
	if err = sys.CM().InitDesign(coop.Config{ID: e14DA, DOT: "e14lib", Designer: "e14"}); err == nil {
		err = sys.CM().Start(e14DA)
	}
	if err == nil {
		ws1, err = sys.AddWorkstation("e14-ws1")
	}
	if err == nil {
		ws2, err = sys.AddWorkstation("e14-ws2")
	}
	if err != nil {
		sys.Close()
		return nil, nil, nil, err
	}
	return sys, ws1, ws2, nil
}

// e14CheckinRoot checks obj in from ws as a root version and returns its ID
// and canonical encoding size.
func e14CheckinRoot(ws *core.Workstation, obj *catalog.Object) (version.ID, int, error) {
	enc, err := catalog.EncodeObject(obj)
	if err != nil {
		return "", 0, err
	}
	dop, err := ws.Begin("", e14DA)
	if err != nil {
		return "", 0, err
	}
	if err := dop.SetWorkspace(obj); err != nil {
		return "", 0, err
	}
	id, err := dop.Checkin(version.StatusWorking, true)
	if err != nil {
		return "", 0, err
	}
	return id, len(enc), dop.Commit()
}

// RunCacheDelta drives one checkout/edit/checkin/checkout cycle over an
// object of parts×partBytes and measures bytes-on-wire at each step:
//
//	ws1 checks in V0              (cold: full payload up)
//	ws2 checks V0 out             (cold: full payload down)
//	ws1 re-checks V0 out          (cached: NotModified handshake)
//	ws1 edits editParts cells, checks in V1   (delta up)
//	ws2 checks V1 out             (delta down against its cached V0)
//
// Content equality of ws2's reconstruction is asserted against ws1's
// workspace — the content-hash verification made observable.
func RunCacheDelta(parts, editParts, partBytes int) (CacheDeltaResult, error) {
	res := CacheDeltaResult{TotalParts: parts, EditedParts: editParts}
	sys, ws1, ws2, err := e14System()
	if err != nil {
		return res, err
	}
	defer sys.Close()

	// ws1 checks in the root version V0.
	v0, size, err := e14CheckinRoot(ws1, e14Object(parts, partBytes, 14))
	if err != nil {
		return res, err
	}
	res.ObjectBytes = size

	// ws2: cold checkout of V0 (full transfer).
	dop2, err := ws2.Begin("", e14DA)
	if err != nil {
		return res, err
	}
	before := ws2.TM().WireStats()
	start := time.Now()
	if _, err := dop2.Checkout(v0, false); err != nil {
		return res, err
	}
	res.ColdLatency = time.Since(start)
	after := ws2.TM().WireStats()
	if after.FullCheckouts != before.FullCheckouts+1 {
		return res, fmt.Errorf("E14: cold checkout was not a full transfer: %+v", after)
	}
	res.ColdBytes = after.CheckoutBytesIn - before.CheckoutBytesIn

	// ws1: re-checkout of its own (cached) V0 — NotModified.
	dop1, err := ws1.Begin("", e14DA)
	if err != nil {
		return res, err
	}
	before = ws1.TM().WireStats()
	start = time.Now()
	obj, err := dop1.Checkout(v0, true)
	if err != nil {
		return res, err
	}
	res.CachedLatency = time.Since(start)
	after = ws1.TM().WireStats()
	if after.NotModified != before.NotModified+1 {
		return res, fmt.Errorf("E14: re-checkout was not NotModified: %+v", after)
	}
	res.NotModifiedBytes = after.CheckoutBytesIn - before.CheckoutBytesIn

	// ws1 edits editParts cells and checks in V1 (delta up).
	cells := obj.Parts["cells"]
	for i := 0; i < editParts && i < len(cells); i++ {
		k := (i * 131) % len(cells)
		cells[k].Set("data", catalog.Str(fmt.Sprintf("edited-%05d", k)))
	}
	if err := dop1.SetWorkspace(obj); err != nil {
		return res, err
	}
	before = ws1.TM().WireStats()
	v1, err := dop1.Checkin(version.StatusWorking, false)
	if err != nil {
		return res, err
	}
	after = ws1.TM().WireStats()
	if after.DeltaCheckins != before.DeltaCheckins+1 {
		return res, fmt.Errorf("E14: edited checkin did not ship a delta: %+v", after)
	}
	res.CheckinDeltaBytes = after.CheckinBytesOut - before.CheckinBytesOut
	if err := dop1.Commit(); err != nil {
		return res, err
	}

	// ws2 checks V1 out: delta against its cached V0.
	before = ws2.TM().WireStats()
	got, err := dop2.Checkout(v1, false)
	if err != nil {
		return res, err
	}
	after = ws2.TM().WireStats()
	if after.DeltaCheckouts != before.DeltaCheckouts+1 {
		return res, fmt.Errorf("E14: relative checkout did not ship a delta: %+v", after)
	}
	res.CheckoutDeltaBytes = after.CheckoutBytesIn - before.CheckoutBytesIn

	// Both ends must hold identical bytes (the protocol verified hashes;
	// this makes it observable).
	wantEnc, err := catalog.EncodeObject(obj)
	if err != nil {
		return res, err
	}
	gotEnc, err := catalog.EncodeObject(got)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(wantEnc, gotEnc) {
		return res, fmt.Errorf("E14: ws2 reconstruction differs from ws1 workspace")
	}
	if err := dop2.Commit(); err != nil {
		return res, err
	}
	return res, nil
}

// LostDeltaResult is the outcome of one RunLostDelta configuration: what a
// checkout costs when the base the workstation offers loses the delta
// negotiation (DESIGN.md §4.1).
type LostDeltaResult struct {
	// ObjectBytes is the canonical encoding size of each design object.
	ObjectBytes int
	// FullBytes is the response size of a checkout whose offered base lost:
	// the full version travels.
	FullBytes uint64
	// ColdLatency / LostLatency are the median checkout latencies with an
	// empty cache (no base offered) and with an unrelated base offered; the
	// difference is the cost of the lost negotiation.
	ColdLatency, LostLatency time.Duration
}

// RunLostDelta measures the delta negotiation when it cannot win. ws1 checks
// in 2×reps unrelated objects of parts×partBytes; ws2 reads them in pairs —
// the first of a pair into an empty cache (cold, nothing to offer), the
// second while holding only the first, which it offers as a base that shares
// nothing but the encoding header. Both must be answered in full.
func RunLostDelta(parts, partBytes, reps int) (LostDeltaResult, error) {
	var res LostDeltaResult
	sys, ws1, ws2, err := e14System()
	if err != nil {
		return res, err
	}
	defer sys.Close()
	ids := make([]version.ID, 2*reps)
	for i := range ids {
		if ids[i], res.ObjectBytes, err = e14CheckinRoot(ws1, e14Object(parts, partBytes, int64(100+i))); err != nil {
			return res, err
		}
	}
	dop, err := ws2.Begin("", e14DA)
	if err != nil {
		return res, err
	}
	tm := ws2.TM()
	// An untimed pass first: it grows the heap to its working size, so no
	// timed call pays the page faults of fresh spans.
	for _, id := range ids {
		if _, err := dop.Checkout(id, false); err != nil {
			return res, err
		}
		tm.Cache().Drop(id)
	}
	var cold, lost []time.Duration
	for i, id := range ids {
		runtime.GC() // bill no call for the garbage of the one before
		before := tm.WireStats()
		start := time.Now()
		if _, err := dop.Checkout(id, false); err != nil {
			return res, err
		}
		took := time.Since(start)
		after := tm.WireStats()
		if after.FullCheckouts != before.FullCheckouts+1 {
			return res, fmt.Errorf("E14: checkout %d against an unrelated base was not a full transfer: %+v", i, after)
		}
		if i%2 == 0 {
			cold = append(cold, took)
			continue
		}
		lost = append(lost, took)
		res.FullBytes = after.CheckoutBytesIn - before.CheckoutBytesIn
		tm.Cache().Drop(ids[i-1])
		tm.Cache().Drop(id)
	}
	slices.Sort(cold)
	slices.Sort(lost)
	res.ColdLatency, res.LostLatency = cold[reps/2], lost[reps/2]
	return res, dop.Commit()
}

// E14CacheDelta measures bytes-on-wire and checkout latency across object
// sizes and edit fractions: re-checkout of an unmodified object must cost
// O(hash) bytes, small edits to large objects must travel as deltas far
// smaller than the full encoding (ISSUE 3 acceptance; DESIGN.md §4), and a
// checkout that offers an unrelated base must cost little more than a cold
// one (DESIGN.md §4.1: the matcher gives up before its full scan).
func E14CacheDelta() (Report, error) {
	rep := Report{
		ID:    "E14",
		Title: "workstation cache: bytes-on-wire and latency vs object size and edit fraction (DESIGN.md §4)",
		Header: []string{
			"object KiB", "edit", "cold KiB", "NM bytes", "ckin Δ KiB",
			"ckout Δ KiB", "full/Δ", "cold ms", "cached ms", "lost-Δ ms",
		},
	}
	const partBytes = 480
	const lostReps = 9
	for _, cfg := range []struct{ parts, edits int }{
		{32, 1}, {32, 8}, {32, 0},
		{256, 2}, {256, 64}, {256, 0},
		{2048, 16}, {2048, 512}, {2048, 0},
	} {
		if cfg.edits == 0 { // the unrelated-base row of this size
			res, err := RunLostDelta(cfg.parts, partBytes, lostReps)
			if err != nil {
				return rep, fmt.Errorf("E14 parts=%d unrelated: %w", cfg.parts, err)
			}
			rep.Rows = append(rep.Rows, []string{
				f(float64(res.ObjectBytes) / 1024), "unrelated",
				f(float64(res.FullBytes) / 1024), "-", "-",
				f(float64(res.FullBytes) / 1024), "1.0x",
				fmt.Sprintf("%.2f", res.ColdLatency.Seconds()*1e3), "-",
				fmt.Sprintf("%.2f", res.LostLatency.Seconds()*1e3),
			})
			continue
		}
		res, err := RunCacheDelta(cfg.parts, cfg.edits, partBytes)
		if err != nil {
			return rep, fmt.Errorf("E14 parts=%d edits=%d: %w", cfg.parts, cfg.edits, err)
		}
		ratio := 0.0
		if res.CheckinDeltaBytes > 0 {
			ratio = float64(res.ObjectBytes) / float64(res.CheckinDeltaBytes)
		}
		rep.Rows = append(rep.Rows, []string{
			f(float64(res.ObjectBytes) / 1024),
			fmt.Sprintf("%d/%d", cfg.edits, cfg.parts),
			f(float64(res.ColdBytes) / 1024),
			fmt.Sprintf("%d", res.NotModifiedBytes),
			f(float64(res.CheckinDeltaBytes) / 1024),
			f(float64(res.CheckoutDeltaBytes) / 1024),
			fmt.Sprintf("%.1fx", ratio),
			fmt.Sprintf("%.2f", res.ColdLatency.Seconds()*1e3),
			fmt.Sprintf("%.2f", res.CachedLatency.Seconds()*1e3),
			"-",
		})
	}
	rep.Notes = append(rep.Notes,
		"cold = full transfer to an empty cache; NM = re-checkout of a cached, unmodified version (O(hash) bytes)",
		"ckin Δ / ckout Δ = delta shipping for a small edit, verified by content hash on both ends",
		"full/Δ = full encoding over checkin delta; the ≥5x acceptance bar applies to the small-edit rows",
		fmt.Sprintf("unrelated = the workstation offers a cached base sharing only the encoding header: the full version ships (ckout Δ = cold); cold ms / lost-Δ ms are medians of %d checkouts without / with that offer, their gap is the cost of the lost negotiation", lostReps),
	)
	return rep, nil
}
