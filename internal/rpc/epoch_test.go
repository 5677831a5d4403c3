package rpc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/fault"
)

// TestEnvelopeEpochRoundTrip pins the framing of the replication-epoch
// stamp: it travels losslessly beside the watermark, and the older framings
// (a u16 request-ID length, its high bit flagging an epoch) are refused
// rather than decoded.
func TestEnvelopeEpochRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		h       reqHeader
		payload string
	}{
		{reqHeader{client: "a", seq: 1, watermark: 1}, "payload"},
		{reqHeader{client: "a", seq: 1, watermark: 1, epoch: 1}, "payload"},
		{reqHeader{client: "ws7", seq: 99, watermark: 12, epoch: 7}, ""},
		{reqHeader{seq: 1<<64 - 1, epoch: 1<<64 - 1}, "p"},
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
	// A stamped envelope truncated inside the epoch must be refused.
	env := appendEnvelope(nil, reqHeader{client: "a", seq: 1, epoch: 1 << 40}, nil)
	if _, _, err := decodeEnvelope(env[:len(env)-3]); err == nil {
		t.Fatal("truncated epoch accepted")
	}
	// The previous framings: "a#1" unstamped, and stamped with epoch 5.
	for _, old := range [][]byte{
		[]byte("\x00\x03a#1payload"),
		[]byte("\x80\x03a#1\x00\x00\x00\x00\x00\x00\x00\x05payload"),
	} {
		if _, _, err := decodeEnvelope(old); !errors.Is(err, errEnvelopeFormat) {
			t.Fatalf("old-format envelope %q: err = %v, want %v", old, err, errEnvelopeFormat)
		}
	}
}

// TestClientStampsEpoch wires Client.Epoch and checks the server-side deduper
// surfaces the stamp to its fence.
func TestClientStampsEpoch(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	var seen atomic.Uint64
	h := DedupDeadlineFenced(func(_ time.Time, method string, payload []byte) ([]byte, error) {
		return []byte("ok"), nil
	}, func(clientEpoch uint64) error {
		seen.Store(clientEpoch)
		return nil
	})
	if err := ServeWithDeadline(tr, "s", h); err != nil {
		t.Fatal(err)
	}
	c := NewClient(tr, "ws1")
	c.Epoch = func() uint64 { return 42 }
	if _, err := c.Call("s", "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if seen.Load() != 42 {
		t.Fatalf("fence saw epoch %d, want 42", seen.Load())
	}
}

// TestEpochFenceRejectsDeposed drives the full fencing rule: a client that
// has witnessed a newer epoch is refused with ErrStaleEpoch at a server stuck
// on the old term, the refusal is memoized across retries, and clients at or
// below the server's term (including unstamped ones) are served.
func TestEpochFenceRejectsDeposed(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	var serverEpoch atomic.Uint64
	serverEpoch.Store(3)
	var execs atomic.Int64
	h := DedupDeadlineFenced(func(_ time.Time, method string, payload []byte) ([]byte, error) {
		execs.Add(1)
		return []byte("ok"), nil
	}, EpochFence(serverEpoch.Load))
	if err := ServeWithDeadline(tr, "s", h); err != nil {
		t.Fatal(err)
	}
	var clientEpoch atomic.Uint64
	c := NewClient(tr, "ws1")
	c.Epoch = clientEpoch.Load

	for _, e := range []uint64{0, 2, 3} {
		clientEpoch.Store(e)
		if _, err := c.Call("s", "m", nil); err != nil {
			t.Fatalf("epoch %d vs server 3: %v", e, err)
		}
	}
	if execs.Load() != 3 {
		t.Fatalf("handler ran %d times, want 3", execs.Load())
	}
	clientEpoch.Store(4) // the client rejoined a promoted standby
	_, err := c.Call("s", "m", nil)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("deposed server served a fenced call: %v", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("fencing refusal should surface as a remote error: %v", err)
	}
	if execs.Load() != 3 {
		t.Fatalf("handler ran behind the fence (%d executions)", execs.Load())
	}
}

// TestNotifierDroppedAt checks the per-address loss counter sees both drop
// paths: queue-full/fault drops before enqueue and delivery failures.
func TestNotifierDroppedAt(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	if err := tr.Serve("up", func(string, []byte) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	cli := NewClient(tr, "srv")
	cli.Retries, cli.Backoff = 1, 0
	n := NewNotifier(cli, 4)
	defer n.Close()
	n.Notify("up", "cb/ping", nil)
	n.Notify("down", "cb/ping", nil) // no handler: delivery fails
	n.Flush()
	if got := n.DroppedAt("up"); got != 0 {
		t.Fatalf("DroppedAt(up) = %d, want 0", got)
	}
	if got := n.DroppedAt("down"); got != 1 {
		t.Fatalf("DroppedAt(down) = %d, want 1", got)
	}
	n.Close()
	n.Notify("down", "cb/ping", nil) // closed: dropped before enqueue
	if got := n.DroppedAt("down"); got != 2 {
		t.Fatalf("DroppedAt(down) after closed drop = %d, want 2", got)
	}
}

// TestResendDecisions simulates the failover handoff: a commit decision is
// durable but phase 2 dies against the old address; ResendDecisions pushes
// the outcome to the new address, acknowledges it, and a second resend is a
// no-op. Branches fully acknowledged by the original Commit are never resent.
func TestResendDecisions(t *testing.T) {
	tr := NewInProc(FaultPlan{})
	defer tr.Close()
	commits := make(map[string]map[string]int) // addr -> txid -> commits seen
	serve := func(addr string) {
		commits[addr] = make(map[string]int)
		m := commits[addr]
		if err := tr.Serve(addr, Dedup(func(method string, payload []byte) ([]byte, error) {
			switch method {
			case MethodPrepare:
				return []byte("commit"), nil
			case MethodCommit:
				m[string(payload)]++
				return []byte("ok"), nil
			}
			return []byte("ok"), nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	serve("old")
	cli := NewClient(tr, "coord")
	cli.Retries, cli.Backoff = 1, 0
	co, err := NewCoordinator(cli, nil)
	if err != nil {
		t.Fatal(err)
	}

	if o, err := co.Commit("tx-acked", []string{"old"}); err != nil || o != OutcomeCommitted {
		t.Fatalf("commit tx-acked: %v %v", o, err)
	}
	// Decision logged, then the participant dies before phase 2 reaches it.
	co.Faults = fault.New()
	co.Faults.Arm(FaultDecisionLogged, fmt.Errorf("crash"))
	if o, _ := co.Commit("tx-indoubt", []string{"old"}); o != OutcomeCommitted {
		t.Fatalf("in-doubt commit outcome = %v", o)
	}
	co.Faults.Disarm(FaultDecisionLogged)
	if co.Outcome("tx-indoubt") != OutcomeCommitted {
		t.Fatal("the unacknowledged decision is not remembered")
	}

	serve("new") // the promoted standby's participant endpoint
	if err := co.ResendDecisions("new"); err != nil {
		t.Fatal(err)
	}
	if commits["new"]["tx-indoubt"] != 1 || commits["new"]["tx-acked"] != 0 {
		t.Fatalf("resend delivered %v", commits["new"])
	}
	if err := co.ResendDecisions("new"); err != nil {
		t.Fatal(err)
	}
	if commits["new"]["tx-indoubt"] != 1 {
		t.Fatal("acknowledged resend was re-delivered")
	}
	// Acknowledged, the decision leaves memory as a restart's replay of its
	// end record would drop it.
	if len(co.decisions) != 0 {
		t.Fatalf("coordinator still holds %v after every decision was acknowledged", co.decisions)
	}
}
