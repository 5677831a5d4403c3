package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDedupConcurrentDuplicatesSingleFlight delivers the same request ID from
// many goroutines at once while the handler is deliberately slow: the handler
// must run exactly once and every delivery must observe the same response.
// This is the race the seed Dedup lost — it released its lock before invoking
// the handler, so concurrent duplicates both found no memo and both executed.
// Run under -race.
func TestDedupConcurrentDuplicatesSingleFlight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	h := Dedup(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		<-gate // hold every concurrent duplicate in the in-flight window
		return append([]byte("r:"), p...), nil
	})
	const workers = 32
	env := appendEnvelope(nil, reqHeader{client: "ws1", seq: 7}, []byte("payload"))
	var wg sync.WaitGroup
	responses := make([][]byte, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = h("stage", env)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let every worker reach the deduper
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times for %d concurrent duplicates, want exactly 1", n, workers)
	}
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("worker %d saw %q, worker 0 saw %q", i, responses[i], responses[0])
		}
	}
}

// TestDedupConcurrentDistinctIDs hammers the deduper with distinct IDs from
// many goroutines — the common load shape — to shake out lock ordering under
// -race and verify each ID executes once.
func TestDedupConcurrentDistinctIDs(t *testing.T) {
	var calls atomic.Int64
	h := Dedup(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	})
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := appendEnvelope(nil, reqHeader{client: fmt.Sprintf("ws%d", i%8), seq: uint64(i)}, []byte("x"))
			for j := 0; j < 3; j++ { // redeliveries of the same ID
				if _, err := h("m", env); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	if c := calls.Load(); c != n {
		t.Fatalf("handler ran %d times for %d distinct IDs, want %d", c, n, n)
	}
}

// TestDedupEntryBoundEvictsOldest fills the memo past MaxEntries and checks
// LRU order: the oldest IDs re-execute on redelivery, the newest stay
// memoized, and the stats reflect the bound. The client never moves its
// watermark (a silent client), so only the backstop bounds the memo.
func TestDedupEntryBoundEvictsOldest(t *testing.T) {
	var calls atomic.Int64
	d := NewDeduper(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	}, 4, 0)
	env := func(i int) []byte { return appendEnvelope(nil, reqHeader{client: "ws1", seq: uint64(i)}, []byte("v")) }
	for i := 0; i < 6; i++ { // IDs 0..5; 0 and 1 fall off the back
		if _, err := d.Handle("m", env(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want the bound 4", st.Entries)
	}
	if st.Evicted != 2 {
		t.Fatalf("evicted = %d, want 2", st.Evicted)
	}
	if _, err := d.Handle("m", env(5)); err != nil { // newest: memoized
		t.Fatal(err)
	}
	if c := calls.Load(); c != 6 {
		t.Fatalf("redelivery of a memoized ID re-executed (calls = %d, want 6)", c)
	}
	if _, err := d.Handle("m", env(0)); err != nil { // evicted: re-executes
		t.Fatal(err)
	}
	if c := calls.Load(); c != 7 {
		t.Fatalf("redelivery of an evicted ID did not re-execute (calls = %d, want 7)", c)
	}
}

// TestDedupByteBoundEvicts bounds the memo by response bytes.
func TestDedupByteBoundEvicts(t *testing.T) {
	d := NewDeduper(func(m string, p []byte) ([]byte, error) {
		return make([]byte, 1000), nil
	}, 0, 2500)
	for i := 0; i < 5; i++ {
		env := appendEnvelope(nil, reqHeader{client: "ws1", seq: uint64(i)}, nil)
		if _, err := d.Handle("m", env); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Bytes > 2500 {
		t.Fatalf("memo holds %d bytes, bound is 2500", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Fatal("byte bound never evicted")
	}
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want ≤2 under the byte bound", st.Entries)
	}
}

// TestDedupLRUTouchOnRedelivery verifies redelivery refreshes recency: an ID
// kept warm by retries survives eviction pressure that removes colder ones.
func TestDedupLRUTouchOnRedelivery(t *testing.T) {
	var calls atomic.Int64
	d := NewDeduper(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	}, 3, 0)
	env := func(i int) []byte { return appendEnvelope(nil, reqHeader{client: "ws1", seq: uint64(i)}, []byte("v")) }
	for i := 0; i < 3; i++ {
		d.Handle("m", env(i)) //nolint:errcheck
	}
	d.Handle("m", env(0)) //nolint:errcheck // touch 0: now 1 is the coldest
	d.Handle("m", env(3)) //nolint:errcheck // evicts 1, not 0
	before := calls.Load()
	d.Handle("m", env(0)) //nolint:errcheck
	if calls.Load() != before {
		t.Fatal("touched ID was evicted; LRU must evict the coldest")
	}
	d.Handle("m", env(1)) //nolint:errcheck
	if calls.Load() != before+1 {
		t.Fatal("coldest ID survived; eviction order is not LRU")
	}
}

// TestDedupMemoBoundedByWatermark: a client that keeps calling acknowledges
// every reply through the watermark on its next envelope, so 10 000
// sequential calls leave at most two memo entries for it — not the 10 000
// the backstop caps alone would keep.
func TestDedupMemoBoundedByWatermark(t *testing.T) {
	d := NewDeduper(func(m string, p []byte) ([]byte, error) { return make([]byte, 512), nil }, 0, 0)
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	if err := tr.Serve("srv", d.Handle); err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, "ws1")
	for i := 0; i < 10000; i++ {
		if _, err := c.Call("srv", "m", nil); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Entries > 2 {
			t.Fatalf("after call %d the memo holds %d entries for one sequential client, want at most 2", i+1, st.Entries)
		}
	}
	if st := d.Stats(); st.Evicted != 0 || st.Bytes > 2*(512+len("ws1")) {
		t.Fatalf("memo after 10 000 calls: %+v", st)
	}
}

// TestDedupRefusesDuplicateBelowWatermark replays a request after its
// client's watermark passed it: the delivery is refused with the wire-coded
// ErrStaleDuplicate — over the in-process path and over a socket — and the
// handler never runs for it a second time.
func TestDedupRefusesDuplicateBelowWatermark(t *testing.T) {
	var calls atomic.Int64
	h := Dedup(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	})
	_, addr := startEcho(t, h)
	cli := NewTCP()
	defer cli.Close()
	first := appendEnvelope(nil, reqHeader{client: "ws1", seq: 1, watermark: 1}, []byte("a"))
	for _, env := range [][]byte{first, appendEnvelope(nil, reqHeader{client: "ws1", seq: 2, watermark: 2}, []byte("b"))} {
		if _, err := h("m", env); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h("m", first); !errors.Is(err, ErrStaleDuplicate) {
		t.Fatalf("in-process replay below the watermark: err = %v, want %v", err, ErrStaleDuplicate)
	}
	if _, err := cli.Call(addr, "m", first); !errors.Is(err, ErrStaleDuplicate) || !errors.Is(err, ErrRemote) {
		t.Fatalf("replay over the socket: err = %v, want %v under %v", err, ErrStaleDuplicate, ErrRemote)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times for two requests and two stale replays, want 2", n)
	}
}

// TestReusedClientIDIsRefused pins the "client ID unique per incarnation"
// contract: a fresh Client under an ID an earlier client already used starts
// again at sequence 1, below the watermark the server holds for that ID, so
// its calls are refused as stale duplicates and never executed.
func TestReusedClientIDIsRefused(t *testing.T) {
	var calls atomic.Int64
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	if err := tr.Serve("srv", Dedup(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	})); err != nil {
		t.Fatal(err)
	}
	first := NewClient(tr, "ws1")
	for i := 0; i < 3; i++ {
		if _, err := first.Call("srv", "m", nil); err != nil {
			t.Fatal(err)
		}
	}
	reused := NewClient(tr, "ws1")
	if _, err := reused.Call("srv", "m", nil); !errors.Is(err, ErrStaleDuplicate) {
		t.Fatalf("fresh client under a used ID: err = %v, want %v", err, ErrStaleDuplicate)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("handler ran %d times, want 3 (the reused ID's call must not execute)", n)
	}
}

// TestClientWatermarkOnlyPassesCompletedCalls runs calls concurrently on one
// client while the first is held open: every later envelope carries a
// watermark at or below the held call's sequence number, and once it
// returns the watermark moves past it.
func TestClientWatermarkOnlyPassesCompletedCalls(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	hold := make(chan struct{})
	var mu sync.Mutex
	seen := make(map[uint64]uint64) // seq → watermark on its envelope
	if err := tr.Serve("srv", func(method string, env []byte) ([]byte, error) {
		h, _, err := decodeEnvelope(env)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		seen[h.seq] = h.watermark
		mu.Unlock()
		if method == "hold" {
			<-hold
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, "ws1")
	held := make(chan error, 1)
	go func() { _, err := c.Call("srv", "hold", nil); held <- err }()
	for {
		mu.Lock()
		_, started := seen[1]
		mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call("srv", "m", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for seq := uint64(2); seq <= 17; seq++ {
		if wm := seen[seq]; wm != 1 {
			t.Fatalf("call %d carried watermark %d while call 1 was still open, want 1", seq, wm)
		}
	}
	close(hold)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("srv", "m", nil); err != nil {
		t.Fatal(err)
	}
	if wm := seen[18]; wm != 18 {
		t.Fatalf("with every earlier call returned, call 18 carried watermark %d, want 18", wm)
	}
}
