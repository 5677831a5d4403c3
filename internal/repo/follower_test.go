package repo

import (
	"fmt"
	"sync"
	"testing"

	"concord/internal/version"
	"concord/internal/wal"
)

// shipTo is a wal.Shipper that applies every durable batch of the primary's
// log to a follower in-line, as the replication receiver does.
type shipTo struct{ f *Repository }

func (s shipTo) Ship(start wal.LSN, frames []byte, _ int) error {
	return s.f.ApplyShipped(start, frames)
}

// TestFollowerCheckpointRacesApplyShipped runs follower checkpoints back to
// back while shipped batches of checkins, status changes and metadata
// updates keep arriving. ApplyShipped appends and applies each batch under
// the quiesce lock, so no checkpoint cut covers a record the follower has
// logged but not yet applied — such a cut would let the log mark drop it.
// A reopen of the follower's directory must rebuild exactly the primary's
// state.
func TestFollowerCheckpointRacesApplyShipped(t *testing.T) {
	fdir := t.TempDir()
	f, err := Open(testCatalog(t), Options{Dir: fdir, Sync: true, SegmentBytes: 4 << 10, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := Open(testCatalog(t), Options{Dir: t.TempDir(), Sync: true, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Log().SetShipper(shipTo{f})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Checkpoint(); err != nil {
				t.Errorf("follower checkpoint: %v", err)
				return
			}
		}
	}()
	if err := p.CreateGraph("da"); err != nil {
		t.Fatal(err)
	}
	var prev version.ID
	for i := 0; i < 150; i++ {
		id := fmt.Sprintf("v%03d", i)
		if prev == "" {
			err = p.Checkin(mkDOV(id, "da", float64(i)), true)
		} else {
			err = p.Checkin(mkDOV(id, "da", float64(i), prev), false)
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = version.ID(id)
		if i%3 == 0 {
			if err := p.SetStatus(prev, version.StatusFinal); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.PutMeta(fmt.Sprintf("k%d", i%8), []byte(id)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := p.DeleteMeta(fmt.Sprintf("k%d", (i+3)%8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if f.Checkpoints() == 0 {
		t.Fatal("the follower never checkpointed")
	}
	want := digest(t, p)
	if got := digest(t, f); got != want {
		t.Fatalf("live follower state differs from the primary's:\n%s\nwant:\n%s", got, want)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(testCatalog(t), Options{Dir: fdir, Sync: true, Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := digest(t, reopened); got != want {
		t.Fatalf("reopened follower state differs from the primary's:\n%s\nwant:\n%s", got, want)
	}
}
