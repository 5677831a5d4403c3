package txn

import (
	"testing"
	"time"

	"concord/internal/lock"
	"concord/internal/repo"
	"concord/internal/version"
)

// BenchmarkServerCheckoutMiss64K times the server-TM's answer to a checkout
// miss of a 64 KiB version, straight through checkoutWire: offered an
// unrelated base (another root, the bulk reader's case) it answers in full
// without reading the base; offered a relative 1 % away it diffs.
func BenchmarkServerCheckoutMiss64K(b *testing.B) {
	const size = 64 << 10
	r, err := repo.Open(floorplanCatalog(b), repo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateGraph("da1"); err != nil {
		b.Fatal(err)
	}
	scopes := lock.NewScopeTable()
	s := NewServerTM(r, lock.NewManager(), scopes)
	if err := s.Begin("dop", "da1"); err != nil {
		b.Fatal(err)
	}
	base := textObject(1, size)
	for _, v := range []*version.DOV{
		{ID: "base", Object: base},
		{ID: "other", Object: textObject(2, size)},
		{ID: "target", Parents: []version.ID{"base"}, Object: editedObject(base, 3, 0.5)},
	} {
		v.DOT, v.DA, v.Status = "floorplan", "da1", version.StatusWorking
		if err := r.Checkin(v, len(v.Parents) == 0); err != nil {
			b.Fatal(err)
		}
		if err := scopes.Own("da1", string(v.ID)); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		base version.ID
		mode byte
	}{{"unrelated", "other", coFull}, {"relative", "base", coDelta}} {
		b.Run(c.name, func(b *testing.B) {
			_, hash, err := r.Stat(c.base)
			if err != nil {
				b.Fatal(err)
			}
			m := checkoutMsg{DOP: "dop", DA: "da1", DOV: "target", BaseID: c.base, BaseHash: hash}
			out, err := s.checkoutWire(m, time.Time{})
			if err != nil {
				b.Fatal(err)
			}
			if out[0] != c.mode {
				b.Fatalf("answer mode %d, want %d", out[0], c.mode)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.checkoutWire(m, time.Time{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
