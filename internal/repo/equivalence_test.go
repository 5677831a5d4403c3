// Package repo_test holds the checkpoint-equivalence property battery. It
// lives in the external test package so it can drive the repository with
// sim.OpMix histories (sim imports core, which imports repo — the internal
// test package would cycle).
package repo_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"concord/internal/catalog"
	"concord/internal/fault"
	"concord/internal/repo"
	"concord/internal/sim"
	"concord/internal/version"
)

func equivCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if err := c.Register(&catalog.DOT{
		Name: "floorplan",
		Attrs: []catalog.AttrDef{
			{Name: "cell", Kind: catalog.KindString, Required: true},
			{Name: "area", Kind: catalog.KindFloat, Bounded: true, Min: 0, Max: 1e12},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func equivOpen(t *testing.T, dir string, opts repo.Options) *repo.Repository {
	t.Helper()
	opts.Dir = dir
	opts.Sync = true
	r, err := repo.Open(equivCatalog(t), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// holdsDelta reports whether dir holds a delta payload file.
func holdsDelta(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".inc") {
			return true
		}
	}
	return false
}

func equivDigest(t *testing.T, r *repo.Repository) string {
	t.Helper()
	d, err := r.StateDigest()
	if err != nil {
		t.Fatalf("StateDigest: %v", err)
	}
	return d
}

// TestCheckpointEquivalenceOpMix is the property battery of the incremental
// checkpoint design: for seeded sim.OpMix histories, an incremental twin
// (short chains, tiny segments, a crash injected at every catalogued
// checkpoint fault point) must recover to a state byte-identical to a
// full-rebase twin (CheckpointMaxChain 1: a full snapshot at every
// checkpoint) that ran the same history without faults —
// right after the crash, and again at the end of the run. At the end both
// must also match a resident twin that never checkpointed, so every payload
// the checkpointed twins read back cold is compared with one that never left
// memory. Each point crashes the first checkpoint that passes it; the
// payload-file points, which every checkpoint passes, also crash the second
// ("-in-delta"), which the chain bound of 2 makes a delta.
func TestCheckpointEquivalenceOpMix(t *testing.T) {
	type crashCase struct {
		name, point string
		skip        int
	}
	var cases []crashCase
	for _, p := range repo.CrashPoints {
		cases = append(cases, crashCase{p, p, 0})
	}
	for _, p := range []string{repo.CrashSnapshotPartial, repo.CrashSnapshotWritten} {
		cases = append(cases, crashCase{p + "-in-delta", p, 1})
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				testEquivalenceAt(t, c.point, c.skip, seed)
			})
		}
	}
}

func testEquivalenceAt(t *testing.T, point string, skip int, seed int64) {
	const (
		nOps      = 160
		ckptEvery = 8
	)
	crash := errors.New("injected crash")
	reg := fault.New()
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	incOpts := repo.Options{SegmentBytes: 1 << 10, CheckpointMaxChain: 2, Faults: reg}
	a := equivOpen(t, dirA, incOpts)
	b := equivOpen(t, dirB, repo.Options{CheckpointMaxChain: 1})
	// The resident twin never checkpoints: every payload stays in memory,
	// while a and b read their non-leaf versions back from chain files.
	c := equivOpen(t, dirC, repo.Options{})

	mix := sim.OpMix{Checkout: 2, Checkin: 5, Delegate: 1, HandOver: 1, SetStatus: 2, Seed: seed}
	rng := rand.New(rand.NewSource(seed * 977)) // op arguments, shared by both twins

	var ids []version.ID
	das := []string{"da0"}
	apply := func(op func(r *repo.Repository) error) {
		t.Helper()
		for _, r := range []*repo.Repository{a, b, c} {
			if err := op(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply(func(r *repo.Repository) error { return r.CreateGraph("da0") })

	reg.ArmAfter(point, skip, crash)
	crashed := false
	for i := 0; i < nOps; i++ {
		switch op := mix.Pick(); {
		case op == sim.OpCheckin || len(ids) == 0:
			id := version.ID(fmt.Sprintf("v%04d", len(ids)))
			da := das[rng.Intn(len(das))]
			root := len(ids) == 0 || rng.Intn(10) == 0
			var parents []version.ID
			if !root {
				parents = []version.ID{ids[rng.Intn(len(ids))]}
			}
			area := float64(rng.Intn(1000))
			apply(func(r *repo.Repository) error {
				obj := catalog.NewObject("floorplan").
					Set("cell", catalog.Str(string(id))).
					Set("area", catalog.Float(area))
				return r.Checkin(&version.DOV{
					ID: id, DOT: "floorplan", DA: da, Parents: parents,
					Object: obj, Status: version.StatusWorking,
				}, root)
			})
			ids = append(ids, id)
		case op == sim.OpCheckout:
			id := ids[rng.Intn(len(ids))]
			apply(func(r *repo.Repository) error { _, err := r.Get(id); return err })
		case op == sim.OpDelegate:
			da := fmt.Sprintf("da%d", len(das))
			das = append(das, da)
			apply(func(r *repo.Repository) error { return r.CreateGraph(da) })
		case op == sim.OpHandOver:
			key := fmt.Sprintf("handover/%d", rng.Intn(6))
			if rng.Intn(4) == 0 {
				apply(func(r *repo.Repository) error { return r.DeleteMeta(key) })
			} else {
				val := []byte(fmt.Sprintf("state-%d", i))
				apply(func(r *repo.Repository) error { return r.PutMeta(key, val) })
			}
		case op == sim.OpSetStatus:
			id := ids[rng.Intn(len(ids))]
			s := version.Status(1 + rng.Intn(3))
			apply(func(r *repo.Repository) error { return r.SetStatus(id, s) })
		}

		if (i+1)%ckptEvery == 0 {
			if err := b.Checkpoint(); err != nil {
				t.Fatalf("full-rebase twin checkpoint: %v", err)
			}
			err := a.Checkpoint()
			switch {
			case err == nil:
			case errors.Is(err, crash) && !crashed:
				crashed = true
				if skip > 0 && !holdsDelta(t, dirA) {
					t.Fatalf("crash at %s in checkpoint %d left no delta payload file: that checkpoint was not a delta", point, skip+1)
				}
				// Process death: abandon the handle, recover from disk, and
				// prove recovery equals the full-rebase twin immediately.
				a = equivOpen(t, dirA, incOpts)
				if got, want := equivDigest(t, a), equivDigest(t, b); got != want {
					t.Fatalf("crash at %s: recovered digest differs from full-rebase twin:\n--- full-rebase\n%s--- recovered\n%s", point, want, got)
				}
			default:
				t.Fatalf("incremental twin checkpoint: %v", err)
			}
		}
	}
	if !crashed {
		t.Fatalf("fault point %s never fired (hits=%d) — the scenario proved nothing", point, reg.Hits(point))
	}
	// Final recovery equivalence across one more crash/restart of every
	// twin; the resident twin replays its whole log.
	a2 := equivOpen(t, dirA, repo.Options{SegmentBytes: 1 << 10})
	b2 := equivOpen(t, dirB, repo.Options{})
	c2 := equivOpen(t, dirC, repo.Options{})
	if err := a2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	got, want := equivDigest(t, a2), equivDigest(t, b2)
	if got != want {
		t.Fatalf("crash at %s: final digest differs from full-rebase twin:\n--- full-rebase\n%s--- incremental\n%s", point, want, got)
	}
	if resident := equivDigest(t, c2); got != resident {
		t.Fatalf("crash at %s: final digest differs from the resident twin:\n--- resident\n%s--- incremental\n%s", point, resident, got)
	}
}
