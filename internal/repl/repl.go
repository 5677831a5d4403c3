// Package repl implements warm-standby server replication (DESIGN.md §5.4):
// synchronous WAL shipping from a primary to a standby, epoch-fenced
// failover, and client-driven takeover.
//
// The primary's repository log hands every durable group-commit batch to a
// Sender (via the wal.Shipper hook) in its exact on-disk framing; the Sender
// forwards the bytes over the ordinary RPC substrate to the standby's
// Receiver, which lands them in its own log at identical LSNs and applies
// each record to the live MVCC state, keeping the standby hot so promotion
// is O(shipped tail), not O(history). The log is the server's only one: the
// server-TM's staged 2PC records, which are its commit votes, ride in it.
//
// Modes. With synchronous replication the commit path waits for the
// standby's acknowledgement before group-commit waiters are released: a
// commit acknowledged to a workstation is durable on two machines. When the
// standby is unreachable the Sender degrades to trailing mode — commits
// proceed locally, a background pump retries and catches the standby up from
// the primary's log (wal.ReadRaw), and the Sender flips back to synchronous
// once the gap closes. Asynchronous configurations run in trailing mode
// permanently with a bounded lag window: once the standby falls more than
// LagMax bytes behind, contiguous batches ship inline again until the lag
// drains.
//
// Fencing. Every shipped batch and hello carries the primary's replication
// epoch (a monotonic term persisted in the repository's snapshot manifest).
// Promotion bumps the standby's epoch durably before it accepts its first
// write; from then on the deposed primary's batches arrive with a lower term
// and are refused with rpc.ErrStaleEpoch, which the Sender latches as
// terminal — the primary's own WAL fail-stops on the next commit, so no
// split-brain write is ever acknowledged.
package repl

import (
	"fmt"

	"concord/internal/binenc"
	"concord/internal/wal"
)

// RPC methods served by a standby's Receiver.
const (
	// MethodHello is the catch-up handshake: the sender learns the
	// receiver's epoch and log tail.
	MethodHello = "repl/hello"
	// MethodShip delivers one batch of raw WAL frames.
	MethodShip = "repl/ship"
	// MethodPromote asks the standby to take over as primary (client-driven
	// takeover; also invoked by operators via concordd -promote).
	MethodPromote = "repl/promote"
)

// Fault points traversed by the replication layer (armed by the scenario
// harness).
const (
	// FaultShipDrop fires in the Sender before a batch is sent; when armed
	// the batch is not transmitted and the sender degrades to trailing mode,
	// simulating a standby that stopped acknowledging.
	FaultShipDrop = "repl:ship-drop"
	// FaultApplyDrop fires in the Receiver before a shipped batch is
	// applied; when armed the batch is refused, simulating a standby crash
	// mid-apply.
	FaultApplyDrop = "repl:standby-apply"
	// FaultPromote fires at the start of promotion; when armed (typically
	// ArmOnce) the takeover attempt fails before any state changes,
	// exercising promote retry and idempotence.
	FaultPromote = "repl:promote"
)

// FaultPoints lists every fault point owned by this package, for coverage
// reports.
var FaultPoints = []string{FaultShipDrop, FaultApplyDrop, FaultPromote}

// shipMsg is the wire form of one shipped batch: raw WAL frames of the
// repository log starting at LSN Start, stamped with the sender's replication
// epoch.
type shipMsg struct {
	Epoch   uint64
	Start   wal.LSN
	Records uint32
	Frames  []byte
}

// encodeShip appends m's wire form to w.
func encodeShip(w *binenc.Writer, m shipMsg) {
	w.U64(m.Epoch)
	w.U64(uint64(m.Start))
	w.U64(uint64(m.Records))
	w.Blob(m.Frames)
}

// decodeShip parses a shipped batch. It never panics on arbitrary input and
// refuses trailing garbage (a length mismatch means a framing bug, not a
// torn write — the RPC layer already delivers whole messages).
func decodeShip(data []byte) (shipMsg, error) {
	r := binenc.NewReader(data)
	m := shipMsg{
		Epoch:   r.U64(),
		Start:   wal.LSN(r.U64()),
		Records: uint32(r.U64()),
		Frames:  r.Blob(),
	}
	if err := r.Err(); err != nil {
		return shipMsg{}, fmt.Errorf("repl: ship message: %w", err)
	}
	if r.Remaining() != 0 {
		return shipMsg{}, fmt.Errorf("repl: ship message: %d trailing bytes", r.Remaining())
	}
	return m, nil
}

// ackMsg acknowledges a shipped batch, and answers a hello: the receiver's
// current epoch and its log tail (after ingest). A tail ahead of the shipped
// range tells the sender the batch was a duplicate of already-ingested bytes —
// still a success; a hello's tail is the sender's catch-up cursor.
type ackMsg struct {
	Epoch uint64
	Tail  wal.LSN
}

// encodeAck appends m's wire form to w.
func encodeAck(w *binenc.Writer, m ackMsg) {
	w.U64(m.Epoch)
	w.U64(uint64(m.Tail))
}

// decodeAck parses a batch acknowledgement or a hello answer.
func decodeAck(data []byte) (ackMsg, error) {
	r := binenc.NewReader(data)
	m := ackMsg{Epoch: r.U64(), Tail: wal.LSN(r.U64())}
	if err := r.Err(); err != nil {
		return ackMsg{}, fmt.Errorf("repl: ack message: %w", err)
	}
	return m, nil
}
