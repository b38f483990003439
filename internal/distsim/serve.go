package distsim

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry/tracing"
)

// Serving-plane wire records. A control-plane hub (ListenConfig.Decider set)
// answers two extra record kinds on its node links:
//
//	lookup   (0x0a): a front-end decision request
//	           byte    frameKindLookup (| 0x40 when trace-context tagged)
//	           uvarint front-end index
//	           8 bytes request id, little-endian (echoed verbatim)
//	           8 bytes entropy, little-endian (inverted through the
//	                   snapshot's routing distribution)
//	           16 optional trace-context bytes (trace id + span id,
//	                   little-endian), present iff the head carries the
//	                   traced flag; untraced lookups are byte-identical
//	                   to the pre-tracing format
//	decision (0x0b): the answer
//	           byte    frameKindDecision
//	           byte    status (0 = ok, 1 = no snapshot / unknown fe)
//	           8 bytes request id, little-endian
//	           uvarint datacenter index
//	           uvarint slot sequence number
//	           8 bytes snapshot age in nanoseconds, little-endian
//	cpstats  (0x09): pipeline statistics; a 1-byte body is the request,
//	           a longer body is the response:
//	           byte    frameKindCPStats
//	           uvarint value count
//	           8 bytes per value, little-endian float64 (the layout is
//	                   owned by internal/controlplane's StatsPayload)
//
// Lookups are answered inline on the receiving connection — they never
// touch the routing table, the parent link, or any lock; the Decider's
// read path is an atomic snapshot load. All three heads sit above the
// message-kind range (1..6), so they are unambiguous as first body bytes.
const (
	frameKindCPStats  byte = 0x09
	frameKindLookup   byte = 0x0a
	frameKindDecision byte = 0x0b

	decisionStatusOK          byte = 0
	decisionStatusUnavailable byte = 1
)

// A Decider serves routing decisions and pipeline statistics for a hub
// running as a control plane. Implementations must be safe for concurrent
// use from every hub connection goroutine, and Decide must not block —
// it runs on the hub's read loops. internal/controlplane's Pipeline is
// the implementation; the indirection keeps the wire layer solver-free.
type Decider interface {
	// Decide resolves front-end fe using caller entropy u. ok is false
	// when no snapshot is published yet or fe is out of range.
	Decide(fe uint32, u uint64) (dc uint32, slot uint64, ageNanos int64, ok bool)
	// StatsPayload appends the implementation's statistics vector to dst
	// and returns it (layout owned by the implementation).
	StatsPayload(dst []float64) []float64
}

// A TraceDecider additionally answers traced lookups: tc is the hub-side
// span context so the decider's own span (e.g. the pipeline's snapshot
// read) parents under the hub's. Deciders that don't implement it still
// serve traced lookups — the hub just falls back to Decide.
type TraceDecider interface {
	Decider
	DecideTraced(fe uint32, u uint64, tc tracing.Context) (dc uint32, slot uint64, ageNanos int64, ok bool)
}

// appendLookup appends the length-prefixed lookup record. A valid tc
// sets the traced flag on the head byte and rides as a 16-byte suffix.
//
//ufc:hotpath
func appendLookup(dst []byte, fe uint32, reqID, u uint64, tc tracing.Context) []byte {
	head := frameKindLookup
	body := 1 + uvarintLen(uint64(fe)) + 8 + 8
	if tc.Valid() {
		head |= frameFlagTraced
		body += traceSuffixLen
	}
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, head)
	dst = binary.AppendUvarint(dst, uint64(fe))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, u)
	if tc.Valid() {
		dst = appendTraceSuffix(dst, tc)
	}
	return dst
}

// peekLookup reports whether a record body is a lookup request (traced
// or not).
//
//ufc:hotpath
func peekLookup(b []byte) bool {
	return len(b) > 0 && b[0]&^frameFlagTraced == frameKindLookup
}

// parseLookup parses a lookup body; tc is zero for untraced lookups.
func parseLookup(b []byte) (fe uint32, reqID, u uint64, tc tracing.Context, err error) {
	c := byteCursor{b: b}
	head, err := c.u8()
	if err != nil {
		return 0, 0, 0, tc, err
	}
	if head&^frameFlagTraced != frameKindLookup {
		return 0, 0, 0, tc, fmt.Errorf("%w: expected lookup, got head byte %#02x", ErrFrameInvalid, head)
	}
	feU, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, tc, err
	}
	if feU >= maxWireAgents {
		return 0, 0, 0, tc, fmt.Errorf("%w: lookup front-end %d out of range", ErrFrameInvalid, feU)
	}
	idRaw, err := c.bytes(8)
	if err != nil {
		return 0, 0, 0, tc, err
	}
	uRaw, err := c.bytes(8)
	if err != nil {
		return 0, 0, 0, tc, err
	}
	if head&frameFlagTraced != 0 {
		tcRaw, err := c.bytes(traceSuffixLen)
		if err != nil {
			return 0, 0, 0, tc, err
		}
		tc = parseTraceSuffix(tcRaw)
	}
	if c.off != len(b) {
		return 0, 0, 0, tc, fmt.Errorf("%w: %d trailing lookup bytes", ErrFrameInvalid, len(b)-c.off)
	}
	return uint32(feU), binary.LittleEndian.Uint64(idRaw), binary.LittleEndian.Uint64(uRaw), tc, nil
}

// appendDecision appends the length-prefixed decision record.
//
//ufc:hotpath
func appendDecision(dst []byte, d Decision) []byte {
	status := decisionStatusOK
	if !d.OK {
		status = decisionStatusUnavailable
	}
	body := 2 + 8 + uvarintLen(uint64(d.DC)) + uvarintLen(d.Slot) + 8
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, frameKindDecision, status)
	dst = binary.LittleEndian.AppendUint64(dst, d.ReqID)
	dst = binary.AppendUvarint(dst, uint64(d.DC))
	dst = binary.AppendUvarint(dst, d.Slot)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.AgeNanos))
	return dst
}

// Decision is one answered lookup as seen by a client.
type Decision struct {
	ReqID    uint64
	DC       uint32
	Slot     uint64
	AgeNanos int64
	OK       bool
}

// peekDecision reports whether a record body is a decision.
//
//ufc:hotpath
func peekDecision(b []byte) bool {
	return len(b) > 0 && b[0] == frameKindDecision
}

// parseDecision parses a decision body.
func parseDecision(b []byte) (Decision, error) {
	var d Decision
	c := byteCursor{b: b}
	head, err := c.u8()
	if err != nil {
		return d, err
	}
	if head != frameKindDecision {
		return d, fmt.Errorf("%w: expected decision, got head byte %#02x", ErrFrameInvalid, head)
	}
	status, err := c.u8()
	if err != nil {
		return d, err
	}
	if status != decisionStatusOK && status != decisionStatusUnavailable {
		return d, fmt.Errorf("%w: decision status %d", ErrFrameInvalid, status)
	}
	d.OK = status == decisionStatusOK
	idRaw, err := c.bytes(8)
	if err != nil {
		return d, err
	}
	d.ReqID = binary.LittleEndian.Uint64(idRaw)
	dc, err := c.uvarint()
	if err != nil {
		return d, err
	}
	if dc >= maxWireAgents {
		return d, fmt.Errorf("%w: decision datacenter %d out of range", ErrFrameInvalid, dc)
	}
	d.DC = uint32(dc)
	if d.Slot, err = c.uvarint(); err != nil {
		return d, err
	}
	ageRaw, err := c.bytes(8)
	if err != nil {
		return d, err
	}
	d.AgeNanos = int64(binary.LittleEndian.Uint64(ageRaw))
	if c.off != len(b) {
		return d, fmt.Errorf("%w: %d trailing decision bytes", ErrFrameInvalid, len(b)-c.off)
	}
	return d, nil
}

// appendCPStatsRequest appends the single-byte stats request record.
func appendCPStatsRequest(dst []byte) []byte {
	return append(dst, 1, frameKindCPStats)
}

// appendCPStatsResponse appends the stats response carrying vals.
func appendCPStatsResponse(dst []byte, vals []float64) []byte {
	body := 1 + uvarintLen(uint64(len(vals))) + 8*len(vals)
	dst = binary.AppendUvarint(dst, uint64(body))
	dst = append(dst, frameKindCPStats)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// peekCPStats reports whether a record body is a stats record and whether
// it is the bare request form.
func peekCPStats(b []byte) (isStats, isRequest bool) {
	if len(b) == 0 || b[0] != frameKindCPStats {
		return false, false
	}
	return true, len(b) == 1
}

// parseCPStatsResponse parses a stats response into its value vector.
func parseCPStatsResponse(b []byte) ([]float64, error) {
	c := byteCursor{b: b}
	head, err := c.u8()
	if err != nil {
		return nil, err
	}
	if head != frameKindCPStats {
		return nil, fmt.Errorf("%w: expected cpstats, got head byte %#02x", ErrFrameInvalid, head)
	}
	count, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(b))/8+1 {
		return nil, fmt.Errorf("%w: cpstats count %d", ErrFrameInvalid, count)
	}
	vals := make([]float64, 0, count)
	for k := uint64(0); k < count; k++ {
		raw, err := c.bytes(8)
		if err != nil {
			return nil, err
		}
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
	}
	if c.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing cpstats bytes", ErrFrameInvalid, len(b)-c.off)
	}
	return vals, nil
}

// answerLookup decodes one lookup from hc, resolves it against the
// decider and enqueues the decision on the same connection. It allocates
// nothing in steady state (pooled frame in, pooled frame out).
//
//ufc:hotpath
func (h *TCPHub) answerLookup(hc *hubConn, body []byte, d Decider) error {
	fe, reqID, u, tc, err := parseLookup(body)
	if err != nil {
		return err
	}
	var dec Decision
	dec.ReqID = reqID
	sp := h.tracer.Start(tc, "hub.lookup")
	if sp.Live() {
		if td, ok := d.(TraceDecider); ok {
			dec.DC, dec.Slot, dec.AgeNanos, dec.OK = td.DecideTraced(fe, u, sp.Context())
		} else {
			dec.DC, dec.Slot, dec.AgeNanos, dec.OK = d.Decide(fe, u)
		}
		sp.Attr("fe", int64(fe))
		sp.Attr("dc", int64(dec.DC))
		sp.Attr("slot", int64(dec.Slot))
		sp.End()
	} else {
		dec.DC, dec.Slot, dec.AgeNanos, dec.OK = d.Decide(fe, u)
	}
	fb := getFrame()
	fb.b = appendDecision(fb.b, dec)
	if err := hc.cw.enqueue(fb); err != nil {
		putFrame(fb)
		// Writer already failed; the read loop will surface it next.
		return nil
	}
	h.counters.decisions.Inc()
	return nil
}

// answerStats replies to a stats request on hc's connection.
func (h *TCPHub) answerStats(hc *hubConn, d Decider) {
	var scratch [24]float64
	vals := d.StatsPayload(scratch[:0])
	fb := getFrame()
	fb.b = appendCPStatsResponse(fb.b, vals)
	if err := hc.cw.enqueue(fb); err != nil {
		putFrame(fb)
	}
}

// LookupClient is the front-end side of the serving plane: a single TCP
// connection to a control-plane hub over which it pipelines lookup
// requests and receives decisions. Responses are delivered to the
// OnDecision callback from the client's read goroutine — callers match
// them to requests by the echoed request id. A load generator runs many
// clients, each multiplexing the traffic of thousands of simulated users.
type LookupClient struct {
	conn     net.Conn
	cw       *connWriter
	counters transportCounters

	// OnDecision receives every decision record, in arrival order, from
	// the read goroutine. Set before the first Lookup; must not block.
	OnDecision func(Decision)

	statsMu sync.Mutex
	statsCh chan []float64

	haltOnce sync.Once
	done     chan struct{}

	wireVersion int
}

// newLookupClient builds a lookup client on an established (already
// secured and version-negotiated) connection: the coalescing writer, the
// registering hello, and the read loop.
func newLookupClient(conn net.Conn, wireVersion int, name string, onDecision func(Decision)) (*LookupClient, error) {
	c := &LookupClient{conn: conn, OnDecision: onDecision, done: make(chan struct{}), wireVersion: wireVersion}
	c.cw = newConnWriter(conn, 1024, &c.counters, nil)
	fb := getFrame()
	fb.b = appendHello(fb.b, []string{name})
	if err := c.cw.enqueue(fb); err != nil {
		putFrame(fb)
		c.cw.close(err)
		return nil, fmt.Errorf("distsim: lookup hello: %w", err)
	}
	go c.readLoop()
	return c, nil
}

// Lookup enqueues one decision request. reqID is echoed back in the
// decision; u is the routing entropy. Steady-state sends allocate
// nothing and coalesce like every other wire write.
//
//ufc:hotpath
func (c *LookupClient) Lookup(fe uint32, reqID, u uint64) error {
	return c.LookupTraced(fe, reqID, u, tracing.Context{})
}

// LookupTraced is Lookup with a trace context riding on the request, so
// the hub's and pipeline's spans join the caller's trace. A zero context
// sends a plain (byte-identical to untraced) lookup.
//
//ufc:hotpath
func (c *LookupClient) LookupTraced(fe uint32, reqID, u uint64, tc tracing.Context) error {
	fb := getFrame()
	fb.b = appendLookup(fb.b, fe, reqID, u, tc)
	if err := c.cw.enqueue(fb); err != nil {
		putFrame(fb)
		return err
	}
	return nil
}

// QueryStats requests the hub's control-plane statistics vector and waits
// up to timeout for the response.
func (c *LookupClient) QueryStats(timeout time.Duration) ([]float64, error) {
	c.statsMu.Lock()
	if c.statsCh == nil {
		c.statsCh = make(chan []float64, 1)
	}
	ch := c.statsCh
	c.statsMu.Unlock()
	fb := getFrame()
	fb.b = appendCPStatsRequest(fb.b)
	if err := c.cw.enqueue(fb); err != nil {
		putFrame(fb)
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case vals := <-ch:
		return vals, nil
	case <-c.done:
		return nil, ErrClosed
	case <-timer.C:
		return nil, fmt.Errorf("distsim: stats query timed out after %v", timeout)
	}
}

// Stats returns a snapshot of the client's transport counters.
func (c *LookupClient) Stats() TransportStats { return c.counters.snapshot() }

// WireVersion reports the protocol version negotiated at dial time.
func (c *LookupClient) WireVersion() int { return c.wireVersion }

func (c *LookupClient) sealedEndpoint() {}

func (c *LookupClient) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var scratch []byte
	for {
		body, wire, err := readRecord(br, &scratch)
		if err != nil {
			c.halt(err)
			return
		}
		c.counters.noteRecv(wire)
		if peekDecision(body) {
			d, err := parseDecision(body)
			if err != nil {
				c.halt(err)
				return
			}
			if cb := c.OnDecision; cb != nil {
				cb(d)
			}
			continue
		}
		if isStats, isReq := peekCPStats(body); isStats && !isReq {
			vals, err := parseCPStatsResponse(body)
			if err != nil {
				c.halt(err)
				return
			}
			c.statsMu.Lock()
			ch := c.statsCh
			c.statsMu.Unlock()
			if ch != nil {
				select {
				case ch <- vals:
				default:
				}
			}
			continue
		}
		if _, pong := parseHeartbeat(body); pong {
			c.counters.pingsRecv.Inc()
			continue
		}
		// Anything else on a lookup link is a protocol error.
		c.halt(fmt.Errorf("%w: unexpected record on lookup link", ErrFrameInvalid))
		return
	}
}

func (c *LookupClient) halt(cause error) {
	c.haltOnce.Do(func() {
		c.cw.fail(cause)
		close(c.done)
	})
}

// Err returns the terminal error once the link is down, nil while live.
func (c *LookupClient) Err() error {
	select {
	case <-c.done:
		return c.cw.closeErr()
	default:
		return nil
	}
}

// Close flushes queued requests and tears the connection down.
func (c *LookupClient) Close() error {
	c.cw.shutdown()
	c.halt(ErrClosed)
	return nil
}
