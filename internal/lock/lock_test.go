package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const tmo = 2 * time.Second

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		held, req Mode
		want      bool
	}{
		{S, S, true}, {S, X, false}, {S, D, true},
		{X, S, false}, {X, X, false}, {X, D, false},
		{D, S, true}, {D, X, false}, {D, D, false},
	}
	for _, tc := range cases {
		if got := compatible(tc.held, tc.req); got != tc.want {
			t.Errorf("compatible(%s, %s) = %t, want %t", tc.held, tc.req, got, tc.want)
		}
	}
}

func TestSharedReaders(t *testing.T) {
	m := NewManager()
	for i := 0; i < 5; i++ {
		if err := m.Acquire(fmt.Sprintf("r%d", i), "dov1", S, tmo); err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := len(m.Holders("dov1")); got != 5 {
		t.Fatalf("holders = %d", got)
	}
}

func TestExclusiveBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("w1", "dov1", X, tmo); err != nil {
		t.Fatal(err)
	}
	var acquired atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := m.Acquire("w2", "dov1", X, tmo)
		acquired.Store(true)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if acquired.Load() {
		t.Fatal("w2 acquired X while w1 held it")
	}
	if err := m.Release("w1", "dov1"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("w2 after release: %v", err)
	}
}

func TestDerivationLockSemantics(t *testing.T) {
	m := NewManager()
	// D allows concurrent readers but not a second D or an X.
	if err := m.Acquire("da1", "dov1", D, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("da2", "dov1", S, tmo); err != nil {
		t.Fatalf("S under D: %v", err)
	}
	if err := m.Acquire("da3", "dov1", D, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("second D = %v, want immediate ErrTimeout", err)
	}
	if err := m.Acquire("da4", "dov1", X, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("X under D = %v, want immediate ErrTimeout", err)
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("o", "r", S, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("o", "r", S, tmo); err != nil {
		t.Fatalf("reentrant S: %v", err)
	}
	if err := m.Acquire("o", "r", X, tmo); err != nil {
		t.Fatalf("upgrade S→X as sole holder: %v", err)
	}
	if m.Holds("o", "r") != X {
		t.Fatalf("Holds = %s, want X", m.Holds("o", "r"))
	}
	// X covers S: re-request of S is a no-op.
	if err := m.Acquire("o", "r", S, tmo); err != nil {
		t.Fatalf("S under own X: %v", err)
	}
	if m.Holds("o", "r") != X {
		t.Fatal("S request downgraded X")
	}
}

func TestTimeout(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("a", "r", X, tmo); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire("b", "r", X, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout took too long")
	}
	// After the timeout, releasing a must leave the table clean for b.
	if err := m.Release("a", "r"); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("b", "r", X, tmo); err != nil {
		t.Fatalf("b after timeout: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("t1", "a", X, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire("t2", "b", X, tmo); err != nil {
		t.Fatal(err)
	}
	// t1 waits for b (held by t2).
	errc := make(chan error, 1)
	go func() { errc <- m.Acquire("t1", "b", X, 5*time.Second) }()
	time.Sleep(30 * time.Millisecond)
	// t2 requesting a closes the cycle: must be rejected as deadlock.
	err := m.Acquire("t2", "a", X, 5*time.Second)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("t2 = %v, want ErrDeadlock", err)
	}
	// Victim resolves the cycle: t2 releases b, t1 proceeds.
	if err := m.Release("t2", "b"); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("t1 after victim released: %v", err)
	}
}

func TestReleaseNotHeld(t *testing.T) {
	m := NewManager()
	if err := m.Release("ghost", "r"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Release = %v, want ErrNotHeld", err)
	}
	if err := m.Acquire("a", "r", S, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("b", "r"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Release other owner = %v, want ErrNotHeld", err)
	}
}

func TestReleaseAll(t *testing.T) {
	m := NewManager()
	for _, r := range []string{"a", "b", "c"} {
		if err := m.Acquire("t1", r, X, tmo); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll("t1")
	for _, r := range []string{"a", "b", "c"} {
		if m.Holds("t1", r) != 0 {
			t.Fatalf("still holds %s", r)
		}
		if err := m.Acquire("t2", r, X, tmo); err != nil {
			t.Fatalf("t2 acquire %s: %v", r, err)
		}
	}
}

func TestFIFONoOvertaking(t *testing.T) {
	m := NewManager()
	if err := m.Acquire("holder", "r", X, tmo); err != nil {
		t.Fatal(err)
	}
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire("first-X", "r", X, 5*time.Second); err == nil {
			record("first-X")
			m.Release("first-X", "r")
		}
	}()
	time.Sleep(30 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.Acquire("second-S", "r", S, 5*time.Second); err == nil {
			record("second-S")
			m.Release("second-S", "r")
		}
	}()
	time.Sleep(30 * time.Millisecond)
	m.Release("holder", "r")
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "first-X" {
		t.Fatalf("grant order = %v, want first-X before second-S", order)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	const goroutines = 16
	const iters = 60
	var wg sync.WaitGroup
	var granted atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			owner := fmt.Sprintf("t%d", id)
			for i := 0; i < iters; i++ {
				res := fmt.Sprintf("r%d", (id+i)%5)
				mode := S
				if i%3 == 0 {
					mode = X
				}
				err := m.Acquire(owner, res, mode, 3*time.Second)
				if err != nil {
					// Deadlock rejections are legal under contention.
					if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout) {
						continue
					}
					t.Errorf("acquire: %v", err)
					return
				}
				granted.Add(1)
				m.Release(owner, res)
			}
		}(g)
	}
	wg.Wait()
	if granted.Load() == 0 {
		t.Fatal("no lock ever granted under stress")
	}
}

func TestModeString(t *testing.T) {
	if S.String() != "S" || X.String() != "X" || D.String() != "D" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

// TestQueuedWaiterSeesNoPhantomCycle: a queued waiter re-checks for a cycle
// on every wake-up, and the re-check used to count the waiters queued behind
// it as owners it waits for. Behind H's X lock, A is queued and B behind A, so
// B waits for H and A; any broadcast on the shard woke A, which followed B→A
// back to itself and was rejected with ErrDeadlock although no cycle exists.
func TestQueuedWaiterSeesNoPhantomCycle(t *testing.T) {
	m := NewManagerWithShards(1)
	if err := m.Acquire("H", "r", X, tmo); err != nil {
		t.Fatal(err)
	}
	sh := m.shardFor("r")
	// queued waits until n requests are queued on r; the shard mutex is held
	// from a request's enqueue until its cond.Wait, so each one observed has
	// run its first cycle check and sleeps.
	queued := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(tmo); ; time.Sleep(time.Millisecond) {
			sh.mu.Lock()
			got := len(sh.table["r"].queue)
			sh.mu.Unlock()
			if got == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests queued on r, want %d", got, n)
			}
		}
	}
	errA, errB := make(chan error, 1), make(chan error, 1)
	go func() { errA <- m.Acquire("A", "r", X, tmo) }()
	queued(1)
	go func() { errB <- m.Acquire("B", "r", X, tmo) }()
	queued(2)

	// An unrelated acquire/release on the same shard broadcasts its cond.
	if err := m.Acquire("C", "other", X, tmo); err != nil {
		t.Fatal(err)
	}
	if err := m.Release("C", "other"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errA:
		t.Fatalf("A left the queue on an unrelated wake-up: %v", err)
	case err := <-errB:
		t.Fatalf("B left the queue on an unrelated wake-up: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	queued(2)

	// FIFO: H's release grants A, A's grants B.
	if err := m.Release("H", "r"); err != nil {
		t.Fatal(err)
	}
	if err := <-errA; err != nil {
		t.Fatalf("A after H's release: %v", err)
	}
	if err := m.Release("A", "r"); err != nil {
		t.Fatal(err)
	}
	if err := <-errB; err != nil {
		t.Fatalf("B after A's release: %v", err)
	}
}
