package distsim

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// defaultRouteShards is the default routing-table shard count
// (ListenConfig.RouteShards overrides it): sharding keeps registration and
// failure handling on one shard from contending with forwarding on
// another. Power of two: the shard of index i is i & (shards-1).
const defaultRouteShards = 16

// routeShard holds the routing slots whose agent index ≡ shard id
// (mod routeShardCount). Slot k of a shard serves agent index
// k*routeShardCount + shard. Messages for agents that have not registered
// yet wait in pending (heap-owned copies) and drain on registration.
type routeShard struct {
	mu           sync.RWMutex
	slots        []*hubConn
	named        map[string]*hubConn
	pending      map[uint32][][]byte
	namedPending map[string][][]byte
	stats        shardStats
}

// shardStats are the per-shard routing counters, updated lock-free on the
// forwarding path and exposed via TCPHub.RegisterMetrics with a
// shard="<id>" label. A skewed msgs distribution across shards reveals
// routing hot spots; requeues/pending expose churn and slow registrants.
type shardStats struct {
	msgs     telemetry.Counter // records routed through this shard
	bytes    telemetry.Counter // wire bytes routed (prefix included)
	requeues telemetry.Counter // records requeued after a failed delivery
	pending  telemetry.Counter // records parked for unregistered destinations
}

// TCPHub is a message router: nodes connect over TCP, register the agent
// ids they host, and exchange binary wire records (see wire.go) which the
// hub forwards verbatim — it peeks only the destination, never decodes a
// payload. Routing is index-based through a sharded slot table; records
// for unregistered ids are queued and flushed on registration, and
// records stranded on a broken connection are requeued for the next node
// that registers the destination.
//
// Hubs compose into a tree: a hub started with ListenConfig.Parent is a
// regional sub-hub that forwards records it cannot route locally up the
// parent link and propagates its registrations upward, so the parent
// routes those ids back down. Hub↔hub links wrap their write batches in
// single batch records each way (see frameKindBatch), so a sub-hub
// serving a whole region costs its parent O(1) records per flush instead
// of one per message.
type TCPHub struct {
	ln         net.Listener
	cfg        ListenConfig
	counters   transportCounters
	shards     []routeShard
	shardMask  uint32
	shardShift uint
	parent     *parentLink // nil on a root hub
	tracer     *tracing.Recorder

	mu     sync.Mutex
	conns  map[net.Conn]*hubConn // value nil until the hello arrives
	closed bool
	wg     sync.WaitGroup
}

// parentLink is a sub-hub's connection to its parent hub.
type parentLink struct {
	conn net.Conn
	cw   *connWriter
}

// hubConn is one connection served by the hub — a node or a child hub:
// its coalescing writer plus the routes it registered (so a failure can
// drop exactly those).
type hubConn struct {
	cw    *connWriter
	idxs  []uint32
	names []string
}

// initShards sizes the routing table; count must be a power of two.
func (h *TCPHub) initShards(count int) {
	h.shards = make([]routeShard, count)
	h.shardMask = uint32(count - 1)
	h.shardShift = uint(bits.TrailingZeros32(uint32(count)))
}

// dialParent connects a sub-hub to its parent — through TLS and the
// wire handshake as sec configures — and starts the downward read loop.
// The first record up the link is the hub handshake; the writer wraps
// subsequent batches in batch records.
func (h *TCPHub) dialParent(ctx context.Context, addr string, region int, sec *SecurityConfig) error {
	conn, _, err := dialSecure(ctx, addr, sec)
	if err != nil {
		return fmt.Errorf("distsim: sub-hub dial parent: %w", err)
	}
	pl := &parentLink{conn: conn}
	pl.cw = newConnWriterWrap(conn, 1024, &h.counters, true, nil)
	fb := getFrame()
	fb.b = appendHubHello(fb.b, region)
	if err := pl.cw.enqueue(fb); err != nil {
		putFrame(fb)
		//ufc:ctx teardown of a writer that never started; the wait cannot block on in-flight work
		pl.cw.close(err)
		return fmt.Errorf("distsim: sub-hub handshake: %w", err)
	}
	h.parent = pl
	h.wg.Add(1)
	go h.parentReadLoop()
	return nil
}

// parentReadLoop receives downward records from the parent hub —
// individually or wrapped in batch records — and routes them to local
// connections. Records the parent sent here that have no local route yet
// park in the pending queues (never bounce back up).
func (h *TCPHub) parentReadLoop() {
	defer h.wg.Done()
	br := bufio.NewReaderSize(h.parent.conn, 64<<10)
	var scratch []byte
	for {
		body, wire, err := readRecord(br, &scratch)
		if err != nil {
			h.parent.cw.fail(err)
			return
		}
		h.counters.noteRecv(wire)
		if _, pong := parseHeartbeat(body); pong {
			continue
		}
		if peekBatch(body) {
			rest, err := parseBatch(body)
			if err != nil {
				h.parent.cw.fail(err)
				return
			}
			for len(rest) > 0 {
				var sub []byte
				sub, rest, err = splitBatchRecord(rest)
				if err != nil {
					h.parent.cw.fail(err)
					return
				}
				h.acceptFromParent(sub)
			}
			continue
		}
		h.acceptFromParent(body)
	}
}

// acceptFromParent re-frames one downward record and routes it locally.
func (h *TCPHub) acceptFromParent(body []byte) {
	fb := getFrame()
	fb.b = binary.AppendUvarint(fb.b, uint64(len(body)))
	fb.b = append(fb.b, body...)
	h.route(fb, true)
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Stats returns a snapshot of the hub's forwarding counters.
func (h *TCPHub) Stats() TransportStats { return h.counters.snapshot() }

// RegisterMetrics attaches the hub's transport counters and its
// per-shard routing counters to reg, tagging every series with the given
// labels (per-shard series additionally carry shard="<id>"). Call before
// serving traffic matters little — registration only publishes the
// already-live counters; the hot paths never touch the registry.
func (h *TCPHub) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	h.counters.register(reg, labels...)
	for s := range h.shards {
		sl := append(append([]telemetry.Label{}, labels...), telemetry.L("shard", strconv.Itoa(s)))
		st := &h.shards[s].stats
		reg.RegisterCounter("ufc_hub_shard_msgs_total", "records routed per hub shard", &st.msgs, sl...)
		reg.RegisterCounter("ufc_hub_shard_bytes_total", "wire bytes routed per hub shard", &st.bytes, sl...)
		reg.RegisterCounter("ufc_hub_shard_requeues_total", "records requeued after a failed delivery", &st.requeues, sl...)
		reg.RegisterCounter("ufc_hub_shard_pending_total", "records parked for unregistered destinations", &st.pending, sl...)
	}
}

// Close stops the hub and disconnects all nodes.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	type pair struct {
		c  net.Conn
		hc *hubConn
	}
	conns := make([]pair, 0, len(h.conns))
	//ufc:nondet teardown order of connections carries no numeric state
	for c, hc := range h.conns {
		conns = append(conns, pair{c, hc})
	}
	h.mu.Unlock()
	err := h.ln.Close()
	if h.parent != nil {
		// Flush records still queued upward (a remote coordinator may be
		// waiting on this region's reports), then drop the link so the
		// parent read loop exits.
		h.parent.cw.shutdown()
	}
	for _, p := range conns {
		if p.hc != nil {
			p.hc.cw.fail(ErrClosed)
		} else {
			_ = p.c.Close() //ufc:discard hub is shutting down; the listener error is already captured
		}
	}
	h.wg.Wait()
	for _, p := range conns {
		if p.hc != nil {
			p.hc.cw.close(ErrClosed)
		}
	}
	return err
}

func (h *TCPHub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

func (h *TCPHub) serveConn(conn net.Conn) {
	defer h.wg.Done()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		_ = conn.Close() //ufc:discard racing connection against shutdown; nothing was sent yet
		return
	}
	h.conns[conn] = nil
	h.mu.Unlock()

	br := bufio.NewReaderSize(conn, 64<<10)
	// Wire handshake first: version negotiation and token auth (see
	// handshake.go). A legacy v1 stream passes through untouched when the
	// listener accepts v1; refused peers get an ack carrying the reason
	// and are torn down here. With a TLS listener the first read below
	// also drives the TLS handshake, under the same deadline.
	if _, err := serverHandshake(conn, br, &h.cfg.Security, &h.counters.hsRefused); err == nil {
		var scratch []byte
		// Registration: the first record must register the peer — a hello
		// with routes from a node, or a hub hello from a child sub-hub
		// (which registers incrementally as its own nodes arrive).
		body, wire, err := readRecord(br, &scratch)
		if err == nil {
			if peekHubHello(body) {
				if _, herr := parseHubHello(body); herr == nil {
					h.counters.noteRecv(wire)
					h.serveRegistered(conn, br, &scratch, nil, true)
				}
			} else {
				var ids []string
				if ids, err = parseHello(body); err == nil {
					h.counters.noteRecv(wire)
					h.serveRegistered(conn, br, &scratch, ids, false)
				}
			}
		}
	}
	_ = conn.Close() //ufc:discard read loop already ended with its own error
	h.mu.Lock()
	delete(h.conns, conn)
	h.mu.Unlock()
}

// serveRegistered runs the post-handshake forwarding loop for one peer —
// a node, or (hubPeer) a child sub-hub. Child hubs register routes
// incrementally with hello records as their own nodes connect, and their
// downward writer wraps batches in batch records.
func (h *TCPHub) serveRegistered(conn net.Conn, br *bufio.Reader, scratch *[]byte, ids []string, hubPeer bool) {
	hc := &hubConn{}
	hc.cw = newConnWriterWrap(conn, 1024, &h.counters, hubPeer, func(unsent []*frameBuf) {
		h.dropConn(hc)
		for _, fb := range unsent {
			h.requeueRecord(fb)
		}
	})
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		hc.cw.close(ErrClosed)
		return
	}
	h.conns[conn] = hc
	h.mu.Unlock()
	if len(ids) > 0 {
		h.register(hc, ids)
	}

	for {
		if h.cfg.IdleTimeout > 0 {
			// Liveness: a node that stops producing records — including
			// heartbeat pings — past the idle window is dead; the failed
			// read below drops its routes.
			_ = conn.SetReadDeadline(time.Now().Add(h.cfg.IdleTimeout)) //ufc:discard a failed deadline set surfaces as the next read's error
		}
		body, wire, err := readRecord(br, scratch)
		if err != nil {
			// Node gone (EOF) or stream corrupt: drop its routes so new
			// traffic queues as pending, then shut the write half down
			// (the writer's failure hook requeues anything undrained).
			h.dropConn(hc)
			hc.cw.fail(err)
			return
		}
		h.counters.noteRecv(wire)
		if ping, _ := parseHeartbeat(body); ping {
			h.counters.pingsRecv.Inc()
			pfb := getFrame()
			pfb.b = appendPong(pfb.b)
			if err := hc.cw.enqueue(pfb); err != nil {
				putFrame(pfb)
				// Writer already failed; the next read will surface it.
				continue
			}
			h.counters.pingsSent.Inc()
			continue
		}
		if d := h.cfg.Decider; d != nil {
			if peekLookup(body) {
				if err := h.answerLookup(hc, body, d); err != nil {
					h.dropConn(hc)
					hc.cw.fail(err)
					return
				}
				continue
			}
			if isStats, isReq := peekCPStats(body); isStats && isReq {
				h.answerStats(hc, d)
				continue
			}
		}
		if peekBatch(body) {
			rest, err := parseBatch(body)
			if err != nil {
				h.dropConn(hc)
				hc.cw.fail(err)
				return
			}
			for len(rest) > 0 {
				var sub []byte
				sub, rest, err = splitBatchRecord(rest)
				if err != nil {
					h.dropConn(hc)
					hc.cw.fail(err)
					return
				}
				h.acceptRecord(hc, sub)
			}
			continue
		}
		h.acceptRecord(hc, body)
	}
}

// acceptRecord dispatches one inbound record body from hc: incremental
// hellos (a child hub relaying its nodes' registrations) extend hc's
// routes; everything else is re-framed and routed.
func (h *TCPHub) acceptRecord(hc *hubConn, body []byte) {
	if len(body) > 0 && body[0] == frameKindHello {
		if ids, err := parseHello(body); err == nil {
			h.register(hc, ids)
		}
		return
	}
	fb := getFrame()
	fb.b = binary.AppendUvarint(fb.b, uint64(len(body)))
	fb.b = append(fb.b, body...)
	h.route(fb, false)
}

func (h *TCPHub) shardOf(idx uint32) (*routeShard, int) {
	return &h.shards[idx&h.shardMask], int(idx >> h.shardShift)
}

func (h *TCPHub) namedShard(name []byte) *routeShard {
	f := fnv.New32a()
	_, _ = f.Write(name) //ufc:discard fnv's Write is documented to never fail
	return &h.shards[f.Sum32()&h.shardMask]
}

// register installs hc as the route for ids and drains any pending
// records queued for them. On a sub-hub the registration also propagates
// up the parent link, so the parent starts routing those ids down here.
func (h *TCPHub) register(hc *hubConn, ids []string) {
	for _, id := range ids {
		var backlog [][]byte
		if idx, ok := agentIndex(id); ok {
			hc.idxs = append(hc.idxs, idx)
			sh, slot := h.shardOf(idx)
			sh.mu.Lock()
			for slot >= len(sh.slots) {
				sh.slots = append(sh.slots, nil)
			}
			sh.slots[slot] = hc
			if sh.pending != nil {
				backlog = sh.pending[idx]
				delete(sh.pending, idx)
			}
			sh.mu.Unlock()
		} else {
			hc.names = append(hc.names, id)
			sh := h.namedShard([]byte(id))
			sh.mu.Lock()
			if sh.named == nil {
				sh.named = make(map[string]*hubConn)
			}
			sh.named[id] = hc
			if sh.namedPending != nil {
				backlog = sh.namedPending[id]
				delete(sh.namedPending, id)
			}
			sh.mu.Unlock()
		}
		// Drained backlog re-routes as if freshly accepted here: should the
		// route vanish again it parks locally rather than bouncing upward.
		for _, rec := range backlog {
			fb := getFrame()
			fb.b = append(fb.b, rec...)
			h.route(fb, true)
		}
	}
	if p := h.parent; p != nil {
		fb := getFrame()
		fb.b = appendHello(fb.b, ids)
		if err := p.cw.enqueue(fb); err != nil {
			putFrame(fb)
		}
	}
}

// dropConn removes every route pointing at hc. Idempotent; safe to call
// from both the read loop and the writer failure hook.
func (h *TCPHub) dropConn(hc *hubConn) {
	for _, idx := range hc.idxs {
		sh, slot := h.shardOf(idx)
		sh.mu.Lock()
		if slot < len(sh.slots) && sh.slots[slot] == hc {
			sh.slots[slot] = nil
		}
		sh.mu.Unlock()
	}
	for _, name := range hc.names {
		sh := h.namedShard([]byte(name))
		sh.mu.Lock()
		if sh.named[name] == hc {
			delete(sh.named, name)
		}
		sh.mu.Unlock()
	}
}

// route forwards one record (ownership of fb transfers in). On a sub-hub
// a record without a local route travels up the parent link — unless it
// arrived from the parent (fromParent), in which case it parks in the
// destination's pending queue so a tree can never bounce a record in a
// loop. On a root hub unroutable records always park; a failed enqueue
// drops the broken connection and requeues the record.
//
//ufc:hotpath
func (h *TCPHub) route(fb *frameBuf, fromParent bool) {
	_, body := splitRecord(fb.b)
	hello, named, toIdx, to, err := peekRoute(body)
	if err != nil || hello {
		putFrame(fb) // malformed or misplaced hello: drop
		return
	}
	sh := h.shardFor(named, toIdx, to)
	sh.mu.RLock()
	target := h.routeLocked(sh, named, toIdx, to)
	sh.mu.RUnlock()
	var trace tracing.Context
	var traced bool
	if h.tracer != nil {
		trace, traced = peekTraceSuffix(body)
	}
	if target == nil {
		if p := h.parent; p != nil && !fromParent {
			sh.stats.msgs.Inc()
			sh.stats.bytes.Add(uint64(len(fb.b)))
			if traced {
				h.tracer.Event(trace, "hub.up", tracing.I64("to", int64(toIdx)), tracing.Attr{})
			}
			if err := p.cw.enqueue(fb); err != nil {
				//ufc:alloc park path: an unroutable record is copied to the heap by design (broken parent link)
				h.addPending(named, toIdx, to, fb.b)
				putFrame(fb)
			}
			return
		}
		if traced {
			h.tracer.Event(trace, "hub.park", tracing.I64("to", int64(toIdx)), tracing.Attr{})
		}
		//ufc:alloc park path: no route for the record yet, the pending queue owns a heap copy by design
		h.addPending(named, toIdx, to, fb.b)
		putFrame(fb)
		return
	}
	sh.stats.msgs.Inc()
	sh.stats.bytes.Add(uint64(len(fb.b)))
	if traced {
		h.tracer.Event(trace, "hub.forward", tracing.I64("to", int64(toIdx)), tracing.Attr{})
	}
	if err := target.cw.enqueue(fb); err != nil {
		h.dropConn(target)
		h.requeueRecord(fb)
	}
}

// requeueRecord puts an undeliverable record back on the pending queue of
// its destination (taking a heap copy) and recycles the buffer.
func (h *TCPHub) requeueRecord(fb *frameBuf) {
	_, body := splitRecord(fb.b)
	hello, named, toIdx, to, err := peekRoute(body)
	if err == nil && !hello {
		h.shardFor(named, toIdx, to).stats.requeues.Inc()
		if h.tracer != nil {
			if trace, traced := peekTraceSuffix(body); traced {
				h.tracer.Event(trace, "hub.requeue", tracing.I64("to", int64(toIdx)), tracing.Attr{})
			}
		}
		h.addPending(named, toIdx, to, fb.b)
	}
	putFrame(fb)
}

// shardFor resolves the routing shard of a destination.
func (h *TCPHub) shardFor(named bool, toIdx uint32, to []byte) *routeShard {
	if named {
		return h.namedShard(to)
	}
	sh, _ := h.shardOf(toIdx)
	return sh
}

// routeLocked returns the connection registered for a destination, or
// nil; the caller holds sh.mu, the destination's shard lock.
func (h *TCPHub) routeLocked(sh *routeShard, named bool, toIdx uint32, to []byte) *hubConn {
	if named {
		return sh.named[string(to)]
	}
	if _, slot := h.shardOf(toIdx); slot < len(sh.slots) {
		return sh.slots[slot]
	}
	return nil
}

// addPending parks a heap copy of rec until its destination registers.
// The caller found no route, but a registration may have landed since
// and already drained the queue, so the route is checked again under the
// shard's write lock — the lock register drains under — and a record
// that now has a route is forwarded instead of parked forever.
func (h *TCPHub) addPending(named bool, toIdx uint32, to []byte, rec []byte) {
	sh := h.shardFor(named, toIdx, to)
	sh.mu.Lock()
	if h.routeLocked(sh, named, toIdx, to) != nil {
		sh.mu.Unlock()
		fb := getFrame()
		fb.b = append(fb.b, rec...)
		h.route(fb, true)
		return
	}
	cp := append([]byte(nil), rec...)
	if named {
		if sh.namedPending == nil {
			sh.namedPending = make(map[string][][]byte)
		}
		sh.namedPending[string(to)] = append(sh.namedPending[string(to)], cp)
	} else {
		if sh.pending == nil {
			sh.pending = make(map[uint32][][]byte)
		}
		sh.pending[toIdx] = append(sh.pending[toIdx], cp)
	}
	sh.mu.Unlock()
	sh.stats.pending.Inc()
}

// splitRecord separates a record's uvarint length prefix from its body.
func splitRecord(rec []byte) (prefix, body []byte) {
	_, n := binary.Uvarint(rec)
	if n <= 0 || n > len(rec) {
		return rec, nil
	}
	return rec[:n], rec[n:]
}

// TCPNode is a Transport whose local agents exchange messages with remote
// agents through a TCPHub over the binary wire codec. One node can host
// any subset of the agent ids; a single-node deployment still pushes
// every message through the TCP stack and the codec. Sends are buffered
// and coalesced (see connWriter) and allocate nothing in steady state.
type TCPNode struct {
	conn        net.Conn
	cw          *connWriter
	opts        NodeOptions
	counters    transportCounters
	cache       idCache
	wireVersion int

	// Inbox tables are built at construction and never mutated, so the
	// read loop and Inbox need no lock to consult them.
	boxIdx  []chan Message
	boxName map[string]chan Message

	haltOnce sync.Once
	done     chan struct{}

	boxMu       sync.Mutex
	boxesClosed bool
}

var _ Transport = (*TCPNode)(nil)

// NodeOptions configures a TCPNode beyond its hosted ids.
type NodeOptions struct {
	// Buffer is the per-agent inbox capacity (default 64).
	Buffer int
	// HeartbeatInterval, when positive, makes the node ping the hub at
	// this period and enforce link liveness: a read silence longer than
	// HeartbeatInterval × HeartbeatMiss tears the transport down (sends
	// start failing, inboxes close) instead of hanging forever.
	HeartbeatInterval time.Duration
	// HeartbeatMiss is the number of missed heartbeat windows tolerated
	// before the link is declared dead (default 3).
	HeartbeatMiss int
	// Tracer, when non-nil, records send/recv events for traced messages
	// into this flight recorder. Untraced messages cost one branch.
	Tracer *tracing.Recorder
}

// newTCPNode builds a node on an established (already secured and
// version-negotiated) connection: inbox tables, coalescing writer, the
// registering hello, and the read/heartbeat loops.
func newTCPNode(conn net.Conn, wireVersion int, cfg *DialConfig) (*TCPNode, error) {
	opts := NodeOptions{
		Buffer:            cfg.Buffer,
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatMiss:     cfg.HeartbeatMiss,
		Tracer:            cfg.Tracer,
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	if opts.HeartbeatMiss <= 0 {
		opts.HeartbeatMiss = 3
	}
	localIDs := cfg.AgentIDs
	n := &TCPNode{
		conn:        conn,
		opts:        opts,
		wireVersion: wireVersion,
		boxName:     make(map[string]chan Message),
		done:        make(chan struct{}),
	}
	for _, id := range localIDs {
		box := make(chan Message, opts.Buffer)
		if idx, ok := agentIndex(id); ok {
			for int(idx) >= len(n.boxIdx) {
				n.boxIdx = append(n.boxIdx, nil)
			}
			n.boxIdx[idx] = box
		} else {
			n.boxName[id] = box
		}
	}
	n.cw = newConnWriter(conn, 256, &n.counters, nil)
	fb := getFrame()
	fb.b = appendHello(fb.b, localIDs)
	if err := n.cw.enqueue(fb); err != nil {
		putFrame(fb)
		n.cw.close(err)
		return nil, fmt.Errorf("distsim: node hello: %w", err)
	}
	go n.readLoop()
	if opts.HeartbeatInterval > 0 {
		go n.heartbeatLoop()
	}
	return n, nil
}

// heartbeatLoop pings the hub every HeartbeatInterval until the node
// shuts down or the writer fails.
func (n *TCPNode) heartbeatLoop() {
	tick := time.NewTicker(n.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			fb := getFrame()
			fb.b = appendPing(fb.b)
			if err := n.cw.enqueue(fb); err != nil {
				putFrame(fb)
				return
			}
			n.counters.pingsSent.Inc()
		case <-n.done:
			return
		}
	}
}

// Stats returns a snapshot of the node's transport counters.
func (n *TCPNode) Stats() TransportStats { return n.counters.snapshot() }

// WireVersion reports the protocol version negotiated at dial time.
func (n *TCPNode) WireVersion() int { return n.wireVersion }

func (n *TCPNode) sealedEndpoint() {}

// RegisterMetrics attaches the node's transport counters to reg under the
// ufc_transport_* names. When hub and node share one registry, pass
// distinguishing labels (e.g. component="node").
func (n *TCPNode) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	n.counters.register(reg, labels...)
}

// halt shuts the write half down and unblocks send/deliver paths; the
// read loop notices the closed connection and closes the inboxes.
func (n *TCPNode) halt(cause error) {
	n.haltOnce.Do(func() {
		n.cw.fail(cause)
		close(n.done)
	})
}

func (n *TCPNode) readLoop() {
	defer n.closeBoxes()
	br := bufio.NewReaderSize(n.conn, 64<<10)
	var scratch []byte
	for {
		if n.opts.HeartbeatInterval > 0 {
			// Liveness: the hub answers every ping, so a silent link for
			// HeartbeatMiss windows means the hub (or the path) is gone;
			// the expired deadline fails the read and tears the node down.
			window := n.opts.HeartbeatInterval * time.Duration(n.opts.HeartbeatMiss)
			_ = n.conn.SetReadDeadline(time.Now().Add(window)) //ufc:discard a failed deadline set surfaces as the next read's error
		}
		body, wire, err := readRecord(br, &scratch)
		if err != nil {
			n.halt(err)
			return
		}
		n.counters.noteRecv(wire)
		if _, pong := parseHeartbeat(body); pong {
			n.counters.pingsRecv.Inc()
			continue
		}
		fr, err := decodeMessageFrame(body, &n.cache)
		if err != nil {
			n.halt(err)
			return
		}
		if n.opts.Tracer != nil && fr.msg.Trace.Valid() {
			n.opts.Tracer.Event(fr.msg.Trace, "node.recv", tracing.I64("kind", int64(fr.msg.Kind)), tracing.I64("iter", int64(fr.msg.Iter)))
		}
		var box chan Message
		if fr.named {
			box = n.boxName[fr.to]
		} else if int(fr.toIdx) < len(n.boxIdx) {
			box = n.boxIdx[fr.toIdx]
		}
		if box == nil {
			continue // not hosted here; a stale hub route — drop
		}
		select {
		case box <- fr.msg:
		case <-n.done:
			return
		}
	}
}

// closeBoxes closes every inbox exactly once. Only the read loop sends on
// the boxes, and it calls this on exit, so the close cannot race a send.
func (n *TCPNode) closeBoxes() {
	n.boxMu.Lock()
	defer n.boxMu.Unlock()
	if n.boxesClosed {
		return
	}
	n.boxesClosed = true
	for _, box := range n.boxIdx {
		if box != nil {
			close(box)
		}
	}
	//ufc:nondet close order of receive boxes is observationally irrelevant
	for _, box := range n.boxName {
		close(box)
	}
}

// Send implements Transport. Local destinations still round-trip through
// the hub, exercising the full network path. After Close (or a broken
// connection) it consistently returns an error matching ErrClosed.
//
//ufc:hotpath
func (n *TCPNode) Send(to string, m Message) error {
	if n.opts.Tracer != nil && m.Trace.Valid() {
		n.opts.Tracer.Event(m.Trace, "node.send", tracing.I64("kind", int64(m.Kind)), tracing.I64("iter", int64(m.Iter)))
	}
	fb := getFrame()
	fb.b = appendFrame(fb.b, to, &m)
	if err := n.cw.enqueue(fb); err != nil {
		putFrame(fb)
		return fmt.Errorf("distsim: node send to %q: %w", to, err)
	}
	return nil
}

// Inbox implements Transport.
func (n *TCPNode) Inbox(id string) (<-chan Message, error) {
	if idx, ok := agentIndex(id); ok {
		if int(idx) < len(n.boxIdx) && n.boxIdx[idx] != nil {
			return n.boxIdx[idx], nil
		}
		return nil, fmt.Errorf("inbox of %q: %w", id, ErrUnknownAgent)
	}
	if box, ok := n.boxName[id]; ok {
		return box, nil
	}
	return nil, fmt.Errorf("inbox of %q: %w", id, ErrUnknownAgent)
}

// Close implements Transport. It first flushes records still queued in
// the coalescing writer (a remote coordinator may be waiting on this
// node's final reports), then tears the connection down.
func (n *TCPNode) Close() error {
	n.cw.shutdown()
	n.halt(ErrClosed)
	return nil
}
