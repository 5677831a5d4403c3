package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// startEcho serves h on a fresh loopback listener and returns its address.
func startEcho(t *testing.T, h Handler) (*TCP, string) {
	t.Helper()
	srv := NewTCP()
	if err := srv.Serve("127.0.0.1:0", h); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	return srv, addr
}

// TestTCPDedupExactlyOnceOverSockets redelivers the same framed request over
// real sockets: the Dedup-wrapped handler must execute once and memoize the
// response, which is what makes client retries exactly-once end to end.
func TestTCPDedupExactlyOnceOverSockets(t *testing.T) {
	var calls atomic.Int64
	_, addr := startEcho(t, Dedup(func(m string, p []byte) ([]byte, error) {
		calls.Add(1)
		return append([]byte("r:"), p...), nil
	}))
	cli := NewTCP()
	defer cli.Close()
	env := appendEnvelope(nil, reqHeader{client: "ws1", seq: 42}, []byte("payload"))
	var first []byte
	for i := 0; i < 3; i++ {
		resp, err := cli.Call(addr, "stage", env)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if i == 0 {
			first = resp
		} else if !bytes.Equal(resp, first) {
			t.Fatalf("delivery %d returned %q, first returned %q", i, resp, first)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times for one request ID, want exactly once", n)
	}
	// A different request ID is a fresh call.
	if _, err := cli.Call(addr, "stage", appendEnvelope(nil, reqHeader{client: "ws1", seq: 43}, []byte("p"))); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times after a second request ID, want 2", n)
	}
}

// errTestWire is a sentinel registered for the wire-code tests; the code sits
// far above the application range so it can never collide with real codes.
var errTestWire = errors.New("rpc-test: wire sentinel")

func init() { RegisterWireError(1<<40, errTestWire) }

// TestTCPErrorCodePreservesSentinel pins the wire error-code contract: a
// server-side chain matching a registered sentinel reaches the client as an
// error that still matches that sentinel via errors.Is — identical to the
// in-process transport — while keeping the full rendered remote text, and an
// unregistered cause degrades to text-only (ErrRemote plus message).
func TestTCPErrorCodePreservesSentinel(t *testing.T) {
	unregistered := errors.New("private cause")
	_, addr := startEcho(t, func(m string, p []byte) ([]byte, error) {
		if m == "coded" {
			return nil, fmt.Errorf("server-tm: stage %q: %w", p, errTestWire)
		}
		return nil, fmt.Errorf("server-tm: stage %q: %w", p, unregistered)
	})
	cli := NewTCP()
	defer cli.Close()

	_, err := cli.Call(addr, "coded", []byte("v7"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if !errors.Is(err, errTestWire) {
		t.Fatalf("registered sentinel lost over the wire: %v", err)
	}
	for _, part := range []string{"server-tm", `"v7"`, "wire sentinel"} {
		if !strings.Contains(err.Error(), part) {
			t.Fatalf("remote error %q lost the detail %q", err, part)
		}
	}

	_, err = cli.Call(addr, "uncoded", []byte("v8"))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if errors.Is(err, unregistered) {
		t.Fatal("unregistered sentinel cannot survive the socket")
	}
	if !strings.Contains(err.Error(), "private cause") {
		t.Fatalf("remote error %q lost the rendered cause", err)
	}
}

// TestTCPLargePayloadRoundTrip pushes a multi-megabyte payload through one
// call in each direction (full checkouts of big objects take this path).
func TestTCPLargePayloadRoundTrip(t *testing.T) {
	_, addr := startEcho(t, func(m string, p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	})
	cli := NewTCP()
	defer cli.Close()
	big := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(big)
	resp, err := cli.Call(addr, "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted in transit")
	}
}

// TestTCPCallTimeout bounds a stalled exchange: a handler that never answers
// within CallTimeout must surface as a retriable transport loss (ErrDropped),
// not hang the caller.
func TestTCPCallTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, addr := startEcho(t, func(m string, p []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	cli := NewTCP()
	defer cli.Close()
	cli.CallTimeout = 150 * time.Millisecond
	start := time.Now()
	_, err := cli.Call(addr, "stall", nil)
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("stalled call = %v, want ErrDropped", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", took)
	}
}

// TestTCPClientRetriesThenFails drives the reliable Client over sockets
// against a dead port: every attempt must be made and the final error must
// still expose the transport cause.
func TestTCPClientRetriesThenFails(t *testing.T) {
	cli := NewClient(NewTCP(), "ws1")
	cli.Retries = 3
	cli.Backoff = 0
	_, err := cli.Call("127.0.0.1:1", "do", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable after retries", err)
	}
	if cli.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", cli.Attempts())
	}
}

// TestTCPListenBoundAddr pins the addressing fix: Listen returns the bound
// address of the listener it started, and Addr deterministically reports the
// first listener regardless of how many endpoints the transport serves.
func TestTCPListenBoundAddr(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	h := func(tag string) Handler {
		return func(m string, p []byte) ([]byte, error) { return []byte(tag), nil }
	}
	first, err := srv.Listen("127.0.0.1:0", h("a"))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, tag := range []string{"b", "c", "d"} {
		a, err := srv.Listen("127.0.0.1:0", h(tag))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 0; i < 10; i++ {
		if got := srv.Addr(); got != first {
			t.Fatalf("Addr() = %q, want first listener %q every time", got, first)
		}
	}
	cli := NewTCP()
	defer cli.Close()
	for i, tag := range []string{"b", "c", "d"} {
		resp, err := cli.Call(addrs[i], "ping", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != tag {
			t.Fatalf("listener %s answered %q: Listen returned the wrong bound address", addrs[i], resp)
		}
	}
}

// TestTCPPipelinedInterleave proves the multiplexing: with a single pooled
// connection, a fast call issued behind a slow one completes first — requests
// pipeline and responses correlate by ID instead of queuing head-of-line.
func TestTCPPipelinedInterleave(t *testing.T) {
	release := make(chan struct{})
	_, addr := startEcho(t, func(m string, p []byte) ([]byte, error) {
		if m == "slow" {
			<-release
		}
		return []byte(m), nil
	})
	cli := NewTCP()
	defer cli.Close()
	cli.PoolSize = 1
	slowDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(addr, "slow", nil)
		slowDone <- err
	}()
	// The fast call must complete while the slow one is still parked.
	fastOK := make(chan error, 1)
	go func() {
		_, err := cli.Call(addr, "fast", nil)
		fastOK <- err
	}()
	select {
	case err := <-fastOK:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast call blocked behind slow call on the shared connection")
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestTCPConnectPerCall exercises the E18 ablation baseline: same frames,
// one freshly dialed connection per call, including a chunked payload.
func TestTCPConnectPerCall(t *testing.T) {
	_, addr := startEcho(t, func(m string, p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	})
	cli := NewTCP()
	defer cli.Close()
	cli.ConnectPerCall = true
	big := make([]byte, 600<<10) // forces several chunks at the default grain
	rand.New(rand.NewSource(7)).Read(big)
	resp, err := cli.Call(addr, "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("payload corrupted in connect-per-call mode")
	}
	if _, err := cli.Call(addr, "echo", []byte("small")); err != nil {
		t.Fatal(err)
	}
}

// TestTCPPooledConnSurvivesServerRestart kills the server under a client
// holding pooled connections and restarts it on the same port: the reliable
// Client must ride out the dead connections (ErrDropped/ErrUnreachable are
// retriable) and succeed against the new incarnation.
func TestTCPPooledConnSurvivesServerRestart(t *testing.T) {
	h := Dedup(func(m string, p []byte) ([]byte, error) { return append([]byte("ok:"), p...), nil })
	srv := NewTCP()
	addr, err := srv.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	trans := NewTCP()
	defer trans.Close()
	cli := NewClient(trans, "ws1")
	cli.Backoff = time.Millisecond
	if _, err := cli.Call(addr, "do", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2 := NewTCP()
	defer srv2.Close()
	if _, err := srv2.Listen(addr, h); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	resp, err := cli.Call(addr, "do", []byte("again"))
	if err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if string(resp) != "ok:again" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestTCPServeAfterClose pins the lifecycle: a closed transport refuses new
// listeners and drops existing ones.
func TestTCPServeAfterClose(t *testing.T) {
	srv := NewTCP()
	if err := srv.Serve("127.0.0.1:0", func(m string, p []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve("127.0.0.1:0", func(m string, p []byte) ([]byte, error) { return nil, nil }); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
	cli := NewTCP()
	defer cli.Close()
	if _, err := cli.Call(addr, "do", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to closed listener = %v, want ErrUnreachable", err)
	}
}
