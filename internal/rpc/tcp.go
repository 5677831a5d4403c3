package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"concord/internal/binenc"
)

// TCP is the socket transport of the LAN workstation/server deployment
// (Sect. 5.1, cmd/concordd). It speaks a multiplexed binary wire protocol
// (DESIGN.md §5.2): each peer pair shares a small pool of persistent
// connections carrying length-prefixed binenc frames, every frame tagged
// with a connection-local request ID so responses correlate to pipelined
// requests in any order, and payloads larger than ChunkBytes travel as
// chunk sequences — a multi-MiB checkout never monopolizes the connection,
// small calls interleave between its chunks.
//
// Application errors cross the wire as a numeric code plus the rendered
// message (see RegisterWireError), so transport sentinels and registered
// application sentinels unwrap with errors.Is exactly as over the
// in-process transport.
type TCP struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// CallTimeout bounds a whole request/response exchange (default 10s).
	// A timed-out call abandons its exchange, and kills its connection
	// when no other call is in flight on it.
	CallTimeout time.Duration
	// ChunkBytes caps the payload bytes per frame (default 256 KiB);
	// larger payloads are split so the connection stays fair under
	// multiplexing.
	ChunkBytes int
	// PoolSize is the number of persistent connections kept per peer
	// (default DefaultPoolSize). Calls round-robin over the pool.
	PoolSize int

	mu        sync.Mutex
	listeners []net.Listener // in Serve order; Addr reports the first
	srvConns  map[net.Conn]struct{}
	pools     map[string]*connPool
	closed    bool
}

// Wire defaults and frame layout bounds.
const (
	// defaultChunkBytes is the default per-frame payload cap (large
	// transfers are chunked at this grain).
	defaultChunkBytes = 256 << 10
	// DefaultPoolSize is the default persistent-connection count per peer.
	DefaultPoolSize = 2
	// maxFrameSlack bounds the non-chunk portion of a frame (ids, method,
	// error message); a received frame may be at most ChunkBytes+slack.
	maxFrameSlack = 64 << 10
	// maxWireErrMsg truncates outgoing error messages so a pathological
	// rendered error cannot produce an oversized frame.
	maxWireErrMsg = 32 << 10
)

// Frame kinds (first body byte).
const (
	frameRequest  byte = 1
	frameResponse byte = 2
)

// NewTCP returns a TCP transport with default timeouts.
func NewTCP() *TCP {
	return &TCP{
		DialTimeout: 2 * time.Second,
		CallTimeout: 10 * time.Second,
		srvConns:    make(map[net.Conn]struct{}),
		pools:       make(map[string]*connPool),
	}
}

func (t *TCP) chunkBytes() int {
	if t.ChunkBytes > 0 {
		return t.ChunkBytes
	}
	return defaultChunkBytes
}

func (t *TCP) maxFrame() int { return t.chunkBytes() + maxFrameSlack }

func (t *TCP) poolSize() int {
	if t.PoolSize > 0 {
		return t.PoolSize
	}
	return DefaultPoolSize
}

// Serve starts listening on addr (host:port; :0 picks a free port) and
// dispatches connections to h. Use Listen when the caller needs the bound
// address of this specific listener.
func (t *TCP) Serve(addr string, h Handler) error {
	_, err := t.Listen(addr, h)
	return err
}

// ServeDeadline is Serve for a deadline-aware handler: the per-call budget
// carried by request frames reaches h as an absolute deadline.
func (t *TCP) ServeDeadline(addr string, h DeadlineHandler) error {
	_, err := t.ListenDeadline(addr, h)
	return err
}

// Listen starts a listener on addr and returns its bound address — the
// deterministic way to discover a port-zero binding when the transport
// serves several endpoints (multi-listener topologies of the scenario
// harness).
func (t *TCP) Listen(addr string, h Handler) (string, error) {
	return t.ListenDeadline(addr, func(_ time.Time, method string, payload []byte) ([]byte, error) {
		return h(method, payload)
	})
}

// ListenDeadline is Listen for a deadline-aware handler.
func (t *TCP) ListenDeadline(addr string, h DeadlineHandler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", errors.New("rpc: transport closed")
	}
	t.listeners = append(t.listeners, ln)
	t.mu.Unlock()
	go t.acceptLoop(ln, h)
	return ln.Addr().String(), nil
}

// Addr returns the bound address of the first listener started on this
// transport (deterministic under multiple listeners; prefer the address
// returned by Listen for any but the first). Empty when none is serving.
func (t *TCP) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.listeners) == 0 {
		return ""
	}
	return t.listeners[0].Addr().String()
}

func (t *TCP) acceptLoop(ln net.Listener, h DeadlineHandler) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.srvConns[conn] = struct{}{}
		t.mu.Unlock()
		go t.serveConn(conn, h)
	}
}

// partialReq accumulates the chunks of one in-flight inbound request.
type partialReq struct {
	method string
	// deadline is the caller's propagated deadline (zero = no budget),
	// decoded from the first chunk's budget field.
	deadline time.Time
	buf      []byte
}

// serveConn runs the server half of one persistent connection: a read loop
// reassembling chunked requests and one goroutine per complete request, so a
// slow handler never stalls requests pipelined behind it.
func (t *TCP) serveConn(conn net.Conn, h DeadlineHandler) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.srvConns, conn)
		t.mu.Unlock()
	}()
	fw := &frameWriter{conn: conn, bw: bufio.NewWriter(conn)}
	partials := make(map[uint64]*partialReq)
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		var err error
		buf, err = binenc.ReadFrame(br, buf, t.maxFrame())
		if err != nil {
			return // peer gone or garbage; the connection is done
		}
		r := binenc.NewReader(buf)
		kind := r.Byte()
		id := r.U64()
		last := r.Bool()
		method := r.Str()
		budgetMs := r.U64()
		if r.Err() != nil || kind != frameRequest {
			return // protocol violation: no resync possible
		}
		chunk := buf[len(buf)-r.Remaining():]
		p := partials[id]
		if p == nil {
			p = &partialReq{method: method}
			if budgetMs > 0 {
				p.deadline = time.Now().Add(time.Duration(budgetMs) * time.Millisecond)
			}
			partials[id] = p
		}
		p.buf = append(p.buf, chunk...)
		if !last {
			continue
		}
		delete(partials, id)
		go t.serveRequest(fw, id, p, h)
	}
}

// serveRequest executes the handler and writes the (possibly chunked)
// response. Write access to the shared connection is serialized per frame by
// the frameWriter, so concurrent responses interleave at chunk granularity;
// every response write carries a deadline so a stuck peer can never pin
// handler goroutines forever.
func (t *TCP) serveRequest(fw *frameWriter, id uint64, p *partialReq, h DeadlineHandler) {
	resp, herr := h(p.deadline, p.method, p.buf)
	// Response writes are bounded by the call deadline when the client set
	// one (a late response is worthless to it anyway) and by CallTimeout
	// otherwise.
	wd := p.deadline
	if wd.IsZero() && t.CallTimeout > 0 {
		wd = time.Now().Add(t.CallTimeout)
	}
	if herr != nil {
		msg := herr.Error()
		if len(msg) > maxWireErrMsg {
			msg = msg[:maxWireErrMsg]
		}
		w := binenc.GetWriter(64 + len(msg))
		w.Byte(frameResponse)
		w.U64(id)
		w.Bool(true) // last
		w.Bool(true) // isErr
		w.U64(wireCodeOf(herr))
		w.Str(msg)
		fw.writeFrame(w.Bytes(), wd) //nolint:errcheck // peer may be gone
		w.Free()
		return
	}
	fw.writeChunked(frameResponse, id, "", 0, resp, t.chunkBytes(), wd) //nolint:errcheck // peer may be gone
}

// frameWriter serializes frame writes on a shared connection. Each frame
// write sets (or clears) the connection write deadline under the lock, so
// per-call deadlines on a multiplexed connection never leak between calls —
// the fix for the connection-wide SetDeadline of the seed transport.
type frameWriter struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

// writeFrame writes one frame under the lock, bounded by deadline (zero =
// unbounded).
func (fw *frameWriter) writeFrame(frame []byte, deadline time.Time) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.conn.SetWriteDeadline(deadline) //nolint:errcheck // best effort
	err := binenc.WriteFrame(fw.bw, frame)
	if err == nil {
		err = fw.bw.Flush()
	}
	return err
}

// writeChunked frames payload as one or more frames of at most chunk body
// bytes, taking the write lock per frame so other calls interleave between
// chunks. Request frames carry method and the remaining budget (ms, 0 = no
// bound) on the first chunk; response frames carry the ok-path error fields
// (isErr=false, code 0, empty message) on every chunk. deadline bounds each
// frame write.
func (fw *frameWriter) writeChunked(kind byte, id uint64, method string, budgetMs uint64, payload []byte, chunk int, deadline time.Time) error {
	w := binenc.GetWriter(64 + min(len(payload), chunk))
	defer w.Free()
	rest := payload
	first := true
	for {
		n := min(chunk, len(rest))
		last := n == len(rest)
		w.Reset()
		w.Byte(kind)
		w.U64(id)
		w.Bool(last)
		if kind == frameRequest {
			if first {
				w.Str(method)
				w.U64(budgetMs)
			} else {
				w.Str("")
				w.U64(0)
			}
		} else {
			w.Bool(false) // isErr
			w.U64(0)
			w.Str("")
		}
		w.Raw(rest[:n])
		if err := fw.writeFrame(w.Bytes(), deadline); err != nil {
			return err
		}
		rest = rest[n:]
		first = false
		if last {
			return nil
		}
	}
}

// connPool is the set of persistent connections to one peer.
type connPool struct {
	mu    sync.Mutex
	conns []*muxConn
	next  int
	// dial is the dial in progress, nil when none is. One dial at a time
	// keeps the pool at PoolSize however many callers find it short.
	dial *poolDial
}

// poolDial is one in-progress dial of a pool; done closes when err is set.
type poolDial struct {
	done chan struct{}
	err  error
}

// pendingCall is one in-flight request awaiting its response frames.
type pendingCall struct {
	done    chan struct{}
	buf     []byte
	isErr   bool
	errCode uint64
	errMsg  string
	failure error // transport-level failure (connection death, timeout)
}

// muxConn is one persistent multiplexed client connection: a background read
// loop correlates response frames to pending requests by ID while callers
// pipeline requests through the shared writer.
type muxConn struct {
	conn net.Conn
	fw   *frameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall
	dead    bool
}

func newMuxConn(conn net.Conn, maxFrame int) *muxConn {
	c := &muxConn{
		conn:    conn,
		fw:      &frameWriter{conn: conn, bw: bufio.NewWriter(conn)},
		pending: make(map[uint64]*pendingCall),
	}
	go c.readLoop(maxFrame)
	return c
}

func (c *muxConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// fail kills the connection: every pending call completes with err and
// later roundTrips refuse it. Idempotent.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	pending := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	c.conn.Close()
	for _, p := range pending {
		p.failure = err
		close(p.done)
	}
}

func (c *muxConn) readLoop(maxFrame int) {
	br := bufio.NewReader(c.conn)
	var buf []byte
	for {
		var err error
		buf, err = binenc.ReadFrame(br, buf, maxFrame)
		if err != nil {
			c.fail(fmt.Errorf("%w: recv: %v", ErrDropped, err))
			return
		}
		r := binenc.NewReader(buf)
		kind := r.Byte()
		id := r.U64()
		last := r.Bool()
		isErr := r.Bool()
		errCode := r.U64()
		errMsg := r.Str()
		if r.Err() != nil || kind != frameResponse {
			c.fail(fmt.Errorf("%w: recv: malformed response frame", ErrDropped))
			return
		}
		chunk := buf[len(buf)-r.Remaining():]
		c.mu.Lock()
		p := c.pending[id]
		if p == nil {
			c.mu.Unlock()
			continue // late response of a timed-out call; drop
		}
		p.buf = append(p.buf, chunk...)
		if !last {
			c.mu.Unlock()
			continue
		}
		delete(c.pending, id)
		c.mu.Unlock()
		if isErr {
			p.isErr, p.errCode, p.errMsg = true, errCode, errMsg
		}
		close(p.done)
	}
}

// roundTrip performs one pipelined request/response exchange. timeout is the
// whole-exchange bound — request writes (per frame, via the shared
// frameWriter, so one stuck call never wedges calls pipelined on the same
// connection) and the response wait both count against it. budgetMs > 0
// additionally travels to the server as the caller's deadline.
func (c *muxConn) roundTrip(method string, payload []byte, timeout time.Duration, budgetMs uint64, chunk int) ([]byte, error) {
	p := &pendingCall{done: make(chan struct{})}
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: connection closed", ErrDropped)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = p
	c.mu.Unlock()

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.fw.writeChunked(frameRequest, id, method, budgetMs, payload, chunk, deadline); err != nil {
		c.fail(fmt.Errorf("%w: send: %v", ErrDropped, err))
		return nil, fmt.Errorf("%w: send: %v", ErrDropped, err)
	}
	var timer <-chan time.Time
	if !deadline.IsZero() {
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case <-p.done:
	case <-timer:
		// Abandon the exchange: a late response finds no pending entry and
		// is dropped. The connection dies with it only when no other call
		// is in flight on it, so a half-open connection never outlives its
		// calls while a neighbour's expiry never cuts the calls still
		// inside their own budgets.
		c.mu.Lock()
		delete(c.pending, id)
		idle := len(c.pending) == 0
		c.mu.Unlock()
		if idle {
			c.fail(fmt.Errorf("%w: call timed out", ErrDropped))
		}
		return nil, fmt.Errorf("%w: %s timed out after %v", ErrDropped, method, timeout)
	}
	if p.failure != nil {
		return nil, p.failure
	}
	if p.isErr {
		return nil, newRemoteError(p.errCode, p.errMsg)
	}
	return p.buf, nil
}

// getConn returns a pooled connection to addr, dialing a new one while the
// pool is below PoolSize. Dead connections are pruned on the way. While one
// caller dials, the others use the live connections or, on an empty pool,
// wait for that dial's outcome.
func (t *TCP) getConn(addr string) (*muxConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errors.New("rpc: transport closed")
	}
	p := t.pools[addr]
	if p == nil {
		p = &connPool{}
		t.pools[addr] = p
	}
	t.mu.Unlock()

	p.mu.Lock()
	alive := p.conns[:0]
	for _, c := range p.conns {
		if !c.isDead() {
			alive = append(alive, c)
		}
	}
	p.conns = alive
	if n := len(p.conns); n >= t.poolSize() || (n > 0 && p.dial != nil) {
		c := p.conns[p.next%n]
		p.next++
		p.mu.Unlock()
		return c, nil
	}
	if d := p.dial; d != nil {
		p.mu.Unlock()
		<-d.done
		if d.err != nil {
			return nil, d.err
		}
		return t.getConn(addr)
	}
	d := &poolDial{done: make(chan struct{})}
	p.dial = d
	p.mu.Unlock()

	// Dial outside the pool lock so a slow or dead peer never blocks calls
	// that could proceed on an existing connection.
	c, err := t.dial(addr)
	p.mu.Lock()
	if err == nil {
		p.conns = append(p.conns, c)
	}
	p.dial = nil
	p.mu.Unlock()
	d.err = err
	close(d.done)
	return c, err
}

// dial opens one multiplexed connection to addr.
func (t *TCP) dial(addr string) (*muxConn, error) {
	nd := net.Dialer{Timeout: t.DialTimeout}
	nc, err := nd.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrUnreachable, addr, err)
	}
	c := newMuxConn(nc, t.maxFrame())
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		c.fail(errors.New("rpc: transport closed"))
		return nil, errors.New("rpc: transport closed")
	}
	return c, nil
}

// Call performs one request attempt against addr over a pooled multiplexed
// connection. Transport losses return ErrDropped/ErrUnreachable (the
// reliable Client retries those); application errors return a chain
// matching ErrRemote and any registered sentinel of the remote cause.
func (t *TCP) Call(addr, method string, payload []byte) ([]byte, error) {
	return t.CallBudget(addr, method, payload, 0)
}

// CallBudget is Call with a per-call time budget: it bounds this attempt
// (overriding CallTimeout) and travels in the request frames so the serving
// DeadlineHandler sees the matching deadline. budget 0 falls back to
// CallTimeout with no propagated deadline.
func (t *TCP) CallBudget(addr, method string, payload []byte, budget time.Duration) ([]byte, error) {
	timeout := t.CallTimeout
	var budgetMs uint64
	if budget > 0 {
		timeout = budget
		// Round up: a 300µs budget must not travel as 0 ("no bound").
		budgetMs = uint64((budget + time.Millisecond - 1) / time.Millisecond)
	}
	c, err := t.getConn(addr)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(method, payload, timeout, budgetMs, t.chunkBytes())
}

// Close stops all listeners, drops every server-side connection and kills
// the client-side pools.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	listeners := t.listeners
	t.listeners = nil
	conns := make([]net.Conn, 0, len(t.srvConns))
	for c := range t.srvConns {
		conns = append(conns, c)
	}
	pools := t.pools
	t.pools = make(map[string]*connPool)
	t.mu.Unlock()
	for _, ln := range listeners {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, p := range pools {
		p.mu.Lock()
		cs := p.conns
		p.conns = nil
		p.mu.Unlock()
		for _, c := range cs {
			c.fail(errors.New("rpc: transport closed"))
		}
	}
	return nil
}
