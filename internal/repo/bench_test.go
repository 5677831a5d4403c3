package repo

import (
	"fmt"
	"sync"
	"testing"

	"concord/internal/catalog"
	"concord/internal/version"
)

func benchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	c := catalog.New()
	if err := c.Register(&catalog.DOT{
		Name: "floorplan",
		Attrs: []catalog.AttrDef{
			{Name: "cell", Kind: catalog.KindString, Required: true},
			{Name: "area", Kind: catalog.KindFloat},
		},
	}); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkRestartAfterChurn measures repo.Open after an update-heavy
// history: a fixed set of live DOVs churned by thousands of status and
// metadata updates. With a checkpoint the restart replays O(live state)
// (snapshot + empty suffix); without one it replays the O(history) log —
// the pair quantifies what the checkpoint subsystem buys (E13).
func BenchmarkRestartAfterChurn(b *testing.B) {
	const dovs, churnOps = 16, 20000
	for _, ckpt := range []bool{false, true} {
		name := "full-replay"
		if ckpt {
			name = "checkpointed"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			cat := benchCatalog(b)
			opts := Options{Dir: dir, SegmentBytes: 64 << 10}
			r, err := Open(cat, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.CreateGraph("da"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < dovs; i++ {
				obj := catalog.NewObject("floorplan").
					Set("cell", catalog.Str("c")).
					Set("area", catalog.Float(float64(i)))
				v := &version.DOV{
					ID: version.ID(fmt.Sprintf("v%03d", i)), DOT: "floorplan", DA: "da",
					Object: obj, Status: version.StatusWorking,
				}
				if i > 0 {
					v.Parents = []version.ID{version.ID(fmt.Sprintf("v%03d", i-1))}
				}
				if err := r.Checkin(v, i == 0); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < churnOps; i++ {
				id := version.ID(fmt.Sprintf("v%03d", i%dovs))
				if err := r.SetStatus(id, version.Status(1+i%3)); err != nil {
					b.Fatal(err)
				}
				if err := r.PutMeta(fmt.Sprintf("hot/%d", i%8), []byte(fmt.Sprintf("r%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			if ckpt {
				if err := r.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			disk := r.diskLogBytes()
			if err := r.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(disk)/1024, "disk-KiB")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r2, err := Open(cat, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if r2.DOVCount() != dovs {
					b.Fatalf("recovered %d DOVs, want %d", r2.DOVCount(), dovs)
				}
				r2.Close()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCheckinParallelDAs measures aggregate checkin cost with one
// writer goroutine per DA through the §3.7 sharded pipeline (per-DA locks +
// group commit). EXPERIMENTS.md E16 pins the full throughput curve; this
// keeps the write path under `make bench`.
func BenchmarkCheckinParallelDAs(b *testing.B) {
	const writers = 8
	dir := b.TempDir()
	cat := benchCatalog(b)
	r, err := Open(cat, Options{Dir: dir, Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for w := 0; w < writers; w++ {
		if err := r.CreateGraph(fmt.Sprintf("da%d", w)); err != nil {
			b.Fatal(err)
		}
	}
	var round int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				obj := catalog.NewObject("floorplan").
					Set("cell", catalog.Str("c")).
					Set("area", catalog.Float(float64(round)))
				v := &version.DOV{
					ID:  version.ID(fmt.Sprintf("da%d/v%08d", w, round)),
					DOT: "floorplan", DA: fmt.Sprintf("da%d", w),
					Object: obj, Status: version.StatusWorking,
				}
				if err := r.Checkin(v, true); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
		round++
	}
	b.ReportMetric(float64(b.N*writers), "checkins")
}
