// Package distsim runs the distributed 4-block ADM-G algorithm as a real
// message-passing protocol: every front-end proxy and every datacenter is
// an agent (goroutine) that exchanges typed messages over a Transport,
// mirroring the interaction pattern of Fig. 2 in the paper. The numerical
// steps are the exact per-agent sub-problem solvers from internal/core, so
// the protocol produces bit-identical iterates to the sequential engine —
// which the tests assert. Transports include an in-memory channel
// transport with injectable delay/reordering and transient loss
// (redelivery), and a TCP hub speaking a compact binary framing codec
// with coalesced, buffered writes (see wire.go).
package distsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// Kind discriminates protocol messages.
type Kind int

// Message kinds exchanged by the protocol.
const (
	// KindRouting carries (λ̃_ij, φ_ij) from front-end i to datacenter j
	// (Fig. 2, arrows 1).
	KindRouting Kind = iota + 1
	// KindAux carries ã_ij from datacenter j back to front-end i
	// (Fig. 2, arrows 4).
	KindAux
	// KindReport carries an agent's residual contribution to the
	// coordinator at the end of an iteration.
	KindReport
	// KindControl is the coordinator's continue/stop broadcast.
	KindControl
	// KindFinal carries an agent's final local variables to the
	// coordinator after stop.
	KindFinal
	// KindFinalAck is the coordinator's acknowledgement of a KindFinal in
	// the resilient protocol; agents retransmit finals until acked.
	KindFinalAck
)

// Message is the single message type of the protocol.
type Message struct {
	Kind    Kind
	Iter    int
	From    string
	Payload []float64
	Stop    bool
	// Trace is the optional trace context riding with the message; the
	// zero value (untraced) costs nothing on the wire. Observability
	// metadata only — it never feeds the computation.
	Trace tracing.Context
}

// Transport delivers messages between named agents. Implementations must
// be safe for concurrent use and must deliver every accepted message
// eventually (they may delay and reorder).
type Transport interface {
	// Send delivers m to the named agent's inbox.
	Send(to string, m Message) error
	// Inbox returns the receive channel of the named agent.
	Inbox(id string) (<-chan Message, error)
	// Close tears the transport down; pending receives unblock.
	Close() error
}

// ErrUnknownAgent is returned for sends to or inboxes of unregistered ids.
var ErrUnknownAgent = errors.New("distsim: unknown agent")

// ErrClosed is returned when sending on a closed transport.
var ErrClosed = errors.New("distsim: transport closed")

// ChanOptions configures the in-memory transport's fault injection.
type ChanOptions struct {
	// Seed drives the deterministic delay/loss generator.
	Seed int64
	// MaxDelay adds a uniform random delivery delay in [0, MaxDelay],
	// causing reordering between senders. Zero disables delays.
	MaxDelay time.Duration
	// LossProb is the probability that a message's first transmission is
	// "lost"; lost messages are redelivered after RetransmitDelay,
	// modelling a reliable link with retransmission. Zero disables loss.
	LossProb float64
	// RetransmitDelay is the redelivery latency for lost messages
	// (default 2·MaxDelay + 1ms).
	RetransmitDelay time.Duration
	// Buffer is the inbox capacity (default 64).
	Buffer int
}

// chanCounters instruments the in-memory transport. The in-flight gauge
// counts accepted-but-undelivered messages; every accepted send must
// balance it — delivered, rejected at close, or canceled by Close while
// still sitting in a fault-injected delay.
type chanCounters struct {
	inflight  telemetry.Gauge
	accepted  telemetry.Counter
	delivered telemetry.Counter
	canceled  telemetry.Counter
}

// register attaches the counters to reg under the ufc_transport_* names.
func (c *chanCounters) register(reg *telemetry.Registry, labels ...telemetry.Label) {
	reg.RegisterGauge("ufc_transport_inflight", "messages accepted by Send but not yet delivered", &c.inflight, labels...)
	reg.RegisterCounter("ufc_transport_accepted_total", "messages accepted by Send", &c.accepted, labels...)
	reg.RegisterCounter("ufc_transport_delivered_total", "messages placed in an inbox", &c.delivered, labels...)
	reg.RegisterCounter("ufc_transport_canceled_total", "in-flight messages canceled by Close", &c.canceled, labels...)
}

// ChanTransport is an in-memory Transport backed by channels.
type ChanTransport struct {
	opts ChanOptions

	counters chanCounters

	mu     sync.Mutex
	rng    *rand.Rand
	boxes  map[string]chan Message
	closed bool
	done   chan struct{}  // closed by Close; unblocks senders
	wg     sync.WaitGroup // in-flight sends (immediate and delayed)
}

var _ Transport = (*ChanTransport)(nil)

// NewChanTransport registers the given agent ids.
func NewChanTransport(ids []string, opts ChanOptions) *ChanTransport {
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	if opts.RetransmitDelay <= 0 {
		opts.RetransmitDelay = 2*opts.MaxDelay + time.Millisecond
	}
	t := &ChanTransport{
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		boxes: make(map[string]chan Message, len(ids)),
		done:  make(chan struct{}),
	}
	for _, id := range ids {
		t.boxes[id] = make(chan Message, opts.Buffer)
	}
	return t
}

// Send implements Transport.
func (t *ChanTransport) Send(to string, m Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	box, ok := t.boxes[to]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("send to %q: %w", to, ErrUnknownAgent)
	}
	var delay time.Duration
	if t.opts.MaxDelay > 0 {
		delay = time.Duration(t.rng.Int63n(int64(t.opts.MaxDelay) + 1))
	}
	if t.opts.LossProb > 0 && t.rng.Float64() < t.opts.LossProb {
		delay += t.opts.RetransmitDelay
	}
	// Every send — immediate or delayed — holds a wg slot until the
	// message is in the box (or the transport closes), so Close can wait
	// for in-flight sends before closing the inboxes. Without this, a
	// concurrent Close racing the blocking `box <- m` below is a send on
	// a closed channel.
	t.wg.Add(1)
	t.counters.accepted.Inc()
	t.counters.inflight.Add(1)
	if delay > 0 {
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			// Sleep against t.done so Close never waits out the full
			// delay of in-flight fault-injected deliveries. The cancel
			// branch must balance the in-flight gauge exactly like a
			// delivery would, or teardown leaks a nonzero reading.
			timer := time.NewTimer(delay)
			defer timer.Stop()
			select {
			case <-timer.C:
				_ = t.deliver(box, m)
			case <-t.done:
				t.counters.inflight.Add(-1)
				t.counters.canceled.Inc()
			}
		}()
		return nil
	}
	t.mu.Unlock()
	defer t.wg.Done()
	return t.deliver(box, m)
}

// deliver blocks until the message is enqueued or the transport closes.
func (t *ChanTransport) deliver(box chan Message, m Message) error {
	select {
	case box <- m:
		t.counters.inflight.Add(-1)
		t.counters.delivered.Inc()
		return nil
	case <-t.done:
		t.counters.inflight.Add(-1)
		t.counters.canceled.Inc()
		return ErrClosed
	}
}

// InFlight reports the number of messages accepted by Send and not yet
// delivered (queued in a fault-injected delay or blocked on a full inbox).
// After Close it is always zero: canceled deliveries decrement the gauge.
func (t *ChanTransport) InFlight() int64 { return int64(t.counters.inflight.Load()) }

// RegisterMetrics attaches the transport's counters to a telemetry
// registry (ufc_transport_inflight and friends).
func (t *ChanTransport) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	t.counters.register(reg, labels...)
}

// Inbox implements Transport.
func (t *ChanTransport) Inbox(id string) (<-chan Message, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	box, ok := t.boxes[id]
	if !ok {
		return nil, fmt.Errorf("inbox of %q: %w", id, ErrUnknownAgent)
	}
	return box, nil
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done) // unblock senders stuck on full boxes
	t.wg.Wait()   // no sends in flight past this point
	t.mu.Lock()
	//ufc:nondet close order of receive boxes is observationally irrelevant
	for _, box := range t.boxes {
		close(box)
	}
	t.mu.Unlock()
	return nil
}

// Agent id helpers shared by the protocol and transports.
func feID(i int) string { return fmt.Sprintf("fe-%d", i) }
func dcID(j int) string { return fmt.Sprintf("dc-%d", j) }
func coordID() string   { return "coord" }
func allIDs(m, n int) []string {
	ids := make([]string, 0, m+n+1)
	for i := 0; i < m; i++ {
		ids = append(ids, feID(i))
	}
	for j := 0; j < n; j++ {
		ids = append(ids, dcID(j))
	}
	ids = append(ids, coordID())
	return ids
}
