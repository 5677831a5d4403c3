package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Both transports satisfy the one contract the Client and the servers use.
var (
	_ Transport = (*InProc)(nil)
	_ Transport = (*TCP)(nil)
)

func TestInProcBasicCall(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	if err := tr.Serve("server", func(m string, p []byte) ([]byte, error) {
		return []byte("echo:" + m + ":" + string(p)), nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := tr.Call("server", "ping", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if _, err := tr.Call("ghost", "ping", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown addr = %v", err)
	}
}

func TestInProcPartition(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	tr.Serve("s", func(string, []byte) ([]byte, error) { return []byte("ok"), nil })
	tr.Partition("s")
	if _, err := tr.Call("s", "m", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned = %v", err)
	}
	tr.Heal("s")
	if _, err := tr.Call("s", "m", nil); err != nil {
		t.Fatalf("healed = %v", err)
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	var calls atomic.Int32
	tr.Serve("s", Dedup(func(string, []byte) ([]byte, error) {
		calls.Add(1)
		return nil, errors.New("boom")
	}))
	c := NewClient(tr, "c1")
	c.Backoff = 0
	_, err := c.Call("s", "m", nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler called %d times; application errors must not retry", calls.Load())
	}
}

func TestExactlyOnceUnderLoss(t *testing.T) {
	// 30% request loss + 30% response loss + duplicates: the counter must
	// still increment exactly once per logical call.
	tr := NewInProc(FaultPlan{DropRequest: 0.3, DropResponse: 0.3, Duplicate: 0.2, Seed: 42})
	defer tr.Close()
	var counter atomic.Int64
	tr.Serve("s", Dedup(func(m string, p []byte) ([]byte, error) {
		counter.Add(1)
		return []byte("done"), nil
	}))
	c := NewClient(tr, "c1")
	c.Backoff = 0
	c.Retries = 200
	const calls = 50
	for i := 0; i < calls; i++ {
		if _, err := c.Call("s", "incr", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if counter.Load() != calls {
		t.Fatalf("effects = %d, want %d (exactly-once violated)", counter.Load(), calls)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		h       reqHeader
		payload string
	}{
		{reqHeader{client: "a", seq: 1, watermark: 1}, "payload"},
		{reqHeader{}, ""},
		{reqHeader{client: strings.Repeat("x", 300), seq: 1 << 40, watermark: 1<<40 - 7}, "p"},
	} {
		env := appendEnvelope(nil, tc.h, []byte(tc.payload))
		h, p, err := decodeEnvelope(env)
		if err != nil {
			t.Fatalf("decode(%+v): %v", tc.h, err)
		}
		if h != tc.h || string(p) != tc.payload {
			t.Fatalf("round trip (%+v, %q) -> (%+v, %q)", tc.h, tc.payload, h, p)
		}
	}
	if _, _, err := decodeEnvelope([]byte{envMagic}); err == nil {
		t.Fatal("short envelope accepted")
	}
	if _, _, err := decodeEnvelope([]byte{envMagic, 10, 'a'}); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	env := appendEnvelope(nil, reqHeader{client: "a", seq: 3, watermark: 4}, nil)
	if _, _, err := decodeEnvelope(env); err == nil {
		t.Fatal("watermark beyond the request's own sequence accepted")
	}
}

func TestTCPTransport(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", func(m string, p []byte) ([]byte, error) {
		if m == "fail" {
			return nil, errors.New("nope")
		}
		return append([]byte("got:"), p...), nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	cli := NewTCP()
	defer cli.Close()
	resp, err := cli.Call(addr, "do", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "got:x" {
		t.Fatalf("resp = %q", resp)
	}
	if _, err := cli.Call(addr, "fail", nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("remote error = %v", err)
	}
	if _, err := cli.Call("127.0.0.1:1", "do", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unreachable = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	if err := srv.Serve("127.0.0.1:0", func(m string, p []byte) ([]byte, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cli := NewTCP()
	defer cli.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", n)
			resp, err := cli.Call(addr, "echo", []byte(msg))
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			if string(resp) != msg {
				t.Errorf("resp = %q, want %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
}

// TestAppendEnvelopeZeroAllocs pins the pooled request framing: with a
// destination of adequate capacity (what the envelope pool provides at
// steady state), framing allocates nothing.
func TestAppendEnvelopeZeroAllocs(t *testing.T) {
	payload := make([]byte, 256)
	dst := make([]byte, 0, 2+16+len(payload))
	if n := testing.AllocsPerRun(200, func() {
		env := appendEnvelope(dst[:0], reqHeader{client: "client", seq: 42, watermark: 40, epoch: 3}, payload)
		if len(env) != 1+1+6+3+len(payload) {
			t.Fatalf("framed %d bytes", len(env))
		}
	}); n != 0 {
		t.Fatalf("appendEnvelope allocates %v per op, want 0", n)
	}
}

// TestPooledEnvelopeIsolation drives two reliable calls back to back whose
// handler stashes what it sees: because handlers must copy retained
// payloads (Handler contract) and the client recycles envelopes, the second
// call must not clobber data the first call's handler copied.
func TestPooledEnvelopeIsolation(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	var copies [][]byte
	h := func(method string, payload []byte) ([]byte, error) {
		copies = append(copies, append([]byte(nil), payload...)) // contract: copy
		return []byte("ok"), nil
	}
	if err := tr.Serve("srv", Dedup(h)); err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, "iso")
	c.Backoff = 0
	if _, err := c.Call("srv", "m", []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("srv", "m", []byte("payload-TWO")); err != nil {
		t.Fatal(err)
	}
	if string(copies[0]) != "payload-one" || string(copies[1]) != "payload-TWO" {
		t.Fatalf("handler copies corrupted across pooled envelopes: %q %q", copies[0], copies[1])
	}
}
