package distsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry/tracing"
)

// This file is the protocol's failure layer. The agent bodies in
// protocol.go run the same numerical rounds under either policy; every
// send and every wait goes through a link, and the link alone decides
// what a lost, late, duplicated or malformed message means.
//
// The plain policy (RunOptions.Resilience == nil) is fail-fast: sends go
// straight to the transport, RunOptions.Timeout bounds each message wait
// and expires with ErrTimeout, a malformed or infeasible-peer message is
// an error, and there are no retransmissions and no final acks.
//
// The resilient policy (a non-nil Resilience) hardens the same schedule:
//
//   - every outbound message is recorded by a retrier and retransmitted
//     with exponential backoff + deterministic jitter while the sender's
//     next wait is blocked (proactive resend), or when a peer's duplicate
//     reveals that our response to it was lost (solicited resend);
//   - every inbound stream (from, kind) is deduplicated by an iteration
//     floor, so retransmissions and fault-injected duplicates are
//     numerically inert;
//   - every round phase has a degrade deadline: a peer silent past it is
//     degraded to its last iterate (bounded staleness, capped by
//     Resilience.StalenessCap), and the coordinator declares agents dead
//     after Resilience.DeadAfter consecutive missed reports, broadcasting
//     the dead set in the control payload so the fleet routes around them;
//   - finals are acknowledged, and a front-end that dies before
//     delivering its final routing is finalized by proximity fallback: all
//     of its demand goes to the nearest datacenter.
//
// Determinism: message drops are pure hashes of (seed, link, kind, iter,
// attempt) in FaultTransport, crashes and partitions are keyed on the
// round number, and the degrade deadlines are orders of magnitude longer
// than the retransmission backoff — so for a fixed fault seed the set of
// messages that ultimately get through (and with them every float the
// protocol computes) replays identically run over run.

// Resilience errors.
var (
	// ErrStale is returned when a peer exceeds the bounded-staleness cap.
	ErrStale = errors.New("distsim: peer exceeded the staleness cap")
	// ErrCoordinatorLost is returned when an agent repeatedly misses the
	// coordinator's control broadcast.
	ErrCoordinatorLost = errors.New("distsim: lost contact with the coordinator")
	// ErrDeclaredDead is returned by an agent that finds itself on the
	// coordinator's dead list (it was too slow and the fleet moved on).
	ErrDeclaredDead = errors.New("distsim: agent declared dead by the coordinator")
)

// Resilience configures the protocol-hardening layer of a distributed
// run: per-message degrade deadlines, bounded retransmission with
// exponential backoff and deterministic jitter, duplicate suppression,
// bounded staleness and liveness-based degradation. A nil Resilience in
// RunOptions runs the plain fail-fast policy, bit-identical to the
// sequential engine; a non-nil (even zero-valued) Resilience enables
// hardening with the defaults below.
type Resilience struct {
	// RetryInterval is the first retransmission backoff (default 10ms).
	RetryInterval time.Duration
	// BackoffFactor multiplies the backoff per attempt (default 2).
	BackoffFactor float64
	// MaxRetries bounds retransmissions per blocked wait (default 5).
	MaxRetries int
	// MessageDeadline bounds each round-phase wait; a peer that stays
	// silent past it is degraded to its last iterate (default 2s).
	MessageDeadline time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac deterministically
	// (default 0.1).
	JitterFrac float64
	// StalenessCap aborts an agent when one of its live peers has been
	// stale for this many consecutive rounds (default 25). It must
	// exceed DeadAfter so the coordinator declares death first.
	StalenessCap int
	// DeadAfter is the number of consecutive missed residual reports
	// after which the coordinator declares an agent dead and degrades
	// around it permanently (default 6).
	DeadAfter int
	// Seed drives the deterministic retransmission jitter.
	Seed int64

	// Tracer, when non-nil, records protocol breadcrumbs in the flight
	// ring: per-iteration front-end root spans (whose context rides the
	// routing and report records through the hub tree), retry events and
	// degrade events. Observability only — spans never alter the message
	// schedule or the floats.
	Tracer *tracing.Recorder
	// Flight, when non-nil, dumps the flight ring when a degrade deadline
	// expires — the moments worth a postmortem. Dumps are bounded (see
	// tracing.Flight).
	Flight *tracing.Flight

	// tf overrides the timer source; tests inject a fake clock.
	tf timerFactory
}

// The deadline ladder. Wall-clock degrade decisions are deterministic
// only if every wait outlasts the worst-case *legitimate* production
// time of what it waits for by a full MessageDeadline of margin — then
// scheduler jitter can never flip a live peer into a missed one, and
// only structural silence (crash, partition, death) degrades. Routing
// rows are produced instantly after a control, so datacenters wait one
// deadline for them; a datacenter may spend that whole deadline
// degrading a silent front-end before its ã goes out, so front-ends
// wait two for aux; a front-end may in turn spend two before its
// report goes out, so the coordinator gathers for three; and a control
// answer legitimately takes a full coordinator gather, so control (and
// final-ack) waits use the coordinator's factor per attempt.
const (
	routingDeadlineFactor = 1
	auxDeadlineFactor     = 2
	coordRoundFactor      = 3
)

func (r Resilience) withDefaults() Resilience {
	if r.RetryInterval <= 0 {
		r.RetryInterval = 10 * time.Millisecond
	}
	if r.BackoffFactor < 1 {
		r.BackoffFactor = 2
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 5
	}
	if r.MessageDeadline <= 0 {
		r.MessageDeadline = 2 * time.Second
	}
	if r.JitterFrac <= 0 || r.JitterFrac >= 1 {
		r.JitterFrac = 0.1
	}
	if r.StalenessCap <= 0 {
		r.StalenessCap = 25
	}
	if r.DeadAfter <= 0 {
		r.DeadAfter = 6
	}
	if r.tf == nil {
		r.tf = realTimers{}
	}
	return r
}

// backoff returns the jittered delay before retransmission `attempt`
// (0-based) by agent self in round iter. The jitter is a pure hash of
// (Seed, self, iter, attempt), so a replayed run waits identically.
func (r Resilience) backoff(self string, iter, attempt int) time.Duration {
	d := float64(r.RetryInterval)
	for k := 0; k < attempt; k++ {
		d *= r.BackoffFactor
	}
	u := hash01(faultHash(r.Seed, 'j', self, self, 0, iter, attempt))
	d *= 1 + r.JitterFrac*(2*u-1)
	return time.Duration(d)
}

// timerFactory abstracts timer creation so retry/backoff behaviour is
// testable against a fake clock.
type timerFactory interface {
	newTimer(d time.Duration) waitTimer
}

// waitTimer is the minimal timer surface the wait loops need.
type waitTimer interface {
	C() <-chan time.Time
	Reset(d time.Duration)
	Stop()
}

type realTimers struct{}

func (realTimers) newTimer(d time.Duration) waitTimer {
	return &realTimer{t: time.NewTimer(d)}
}

type realTimer struct{ t *time.Timer }

func (rt *realTimer) C() <-chan time.Time { return rt.t.C }
func (rt *realTimer) Reset(d time.Duration) {
	if !rt.t.Stop() {
		select {
		case <-rt.t.C:
		default:
		}
	}
	rt.t.Reset(d)
}
func (rt *realTimer) Stop() { rt.t.Stop() }

// outRec is one recorded outbound message.
type outRec struct {
	to string
	m  Message
}

// retrier records an agent's outbound messages for the current and
// previous round so they can be retransmitted — either proactively by a
// blocked sender or on solicitation, when a peer's duplicate signals that
// our response to it was lost. All methods run on the owning agent's
// goroutine; the type needs no locking.
type retrier struct {
	t    Transport
	recs []outRec
}

// send transmits and records the message for later retransmission.
// Errors must be handled exactly like Transport.Send errors.
func (r *retrier) send(to string, m Message) error {
	r.recs = append(r.recs, outRec{to: to, m: m})
	return r.t.Send(to, m)
}

// resend retransmits every recorded message to `to` of the given kind and
// iteration. A miss (already pruned or never sent) is a no-op: the round
// has moved on and the peer must catch up through the coordinator.
func (r *retrier) resend(to string, kind Kind, iter int) error {
	for k := range r.recs {
		rec := &r.recs[k]
		if rec.to == to && rec.m.Kind == kind && rec.m.Iter == iter {
			if err := r.t.Send(rec.to, rec.m); err != nil {
				return err
			}
		}
	}
	return nil
}

// newRound prunes records older than the previous round. Two rounds are
// retained: the current round's requests and the previous round's
// responses, which a lagging peer may still solicit.
func (r *retrier) newRound(iter int) {
	keep := r.recs[:0]
	for k := range r.recs {
		if r.recs[k].m.Iter >= iter-1 {
			keep = append(keep, r.recs[k])
		}
	}
	for k := len(keep); k < len(r.recs); k++ {
		r.recs[k] = outRec{}
	}
	r.recs = keep
}

// floorKey identifies one inbound message stream for deduplication.
type floorKey struct {
	from string
	kind Kind
}

// mailbox wraps an agent's inbox with a pending buffer, so the agent can
// receive messages of a specific kind and iteration even when the
// transport reorders deliveries across rounds. Under the resilient policy
// it also suppresses duplicates by per-stream iteration floors and
// surfaces them to an onDup hook, so the owner can retransmit the
// response the peer evidently lost.
type mailbox struct {
	inbox   <-chan Message
	pending []Message
	ctx     context.Context
	// floor is nil under the plain policy, which has no duplicates to
	// suppress.
	floor map[floorKey]int
	// onDup is invoked for every duplicate (a message at or below its
	// stream's floor). Duplicates signal that the peer has not seen our
	// response to the original; the hook retransmits it. May be nil.
	onDup func(m Message)
}

// newMailbox opens agent id's inbox; dedup enables the floors.
func newMailbox(ctx context.Context, t Transport, id string, dedup bool) (*mailbox, error) {
	in, err := t.Inbox(id)
	if err != nil {
		return nil, err
	}
	mb := &mailbox{inbox: in, ctx: ctx}
	if dedup {
		mb.floor = make(map[floorKey]int)
	}
	return mb, nil
}

// spent reports whether m is at or below its stream's floor (already
// consumed or skipped).
func (mb *mailbox) spent(m Message) bool {
	return mb.floor != nil && m.Iter <= mb.floor[floorKey{from: m.From, kind: m.Kind}]
}

// fresh reports whether m is not spent. Spent messages trigger the
// onDup hook.
func (mb *mailbox) fresh(m Message) bool {
	if !mb.spent(m) {
		return true
	}
	if mb.onDup != nil {
		mb.onDup(m)
	}
	return false
}

// consume advances m's stream floor to its iteration.
func (mb *mailbox) consume(m Message) {
	if mb.floor != nil {
		mb.skipTo(m.From, m.Kind, m.Iter)
	}
}

// skipTo records that the owner degraded past (from, kind) up to iter:
// the message is no longer wanted, and a late arrival must be treated as
// a duplicate (triggering the solicited-resend hook, which helps a slow
// peer catch up instead of feeding us a stale iterate).
func (mb *mailbox) skipTo(from string, kind Kind, iter int) {
	k := floorKey{from: from, kind: kind}
	if iter > mb.floor[k] {
		mb.floor[k] = iter
	}
}

// takePending removes and returns the first parked message of kind and
// iter, dropping parked messages a floor has since passed (the peer was
// already answered or is being helped by skipTo's duplicate path).
func (mb *mailbox) takePending(kind Kind, iter int) (Message, bool) {
	for idx := 0; idx < len(mb.pending); idx++ {
		msg := mb.pending[idx]
		if mb.spent(msg) {
			mb.pending = append(mb.pending[:idx], mb.pending[idx+1:]...)
			idx--
			continue
		}
		if msg.Kind == kind && msg.Iter == iter {
			mb.pending = append(mb.pending[:idx], mb.pending[idx+1:]...)
			mb.consume(msg)
			return msg, true
		}
	}
	return Message{}, false
}

// phase is one wait of a protocol round: it receives messages of one
// iteration. Under the plain policy (pol == nil) every recv is bounded by
// wait and expires with ErrTimeout. Under the resilient policy a blocked
// recv retransmits via onRetry with backoff, and the phase as a whole
// gives up at its degrade deadline, wait.
type phase struct {
	mb      *mailbox
	pol     *Resilience
	self    string
	iter    int
	wait    time.Duration
	attempt int
	onRetry func() error
	retry   waitTimer
	degrade waitTimer
	expired bool
}

func newPhase(mb *mailbox, pol *Resilience, self string, iter int, wait time.Duration, onRetry func() error) *phase {
	p := &phase{mb: mb, pol: pol, self: self, iter: iter, wait: wait, onRetry: onRetry}
	if pol != nil {
		p.retry = pol.tf.newTimer(pol.backoff(self, iter, 0))
		p.degrade = pol.tf.newTimer(wait)
	}
	return p
}

func (p *phase) stop() {
	if p.retry != nil {
		p.retry.Stop()
	}
	if p.degrade != nil {
		p.degrade.Stop()
	}
}

// recv returns the next fresh message matching kind at the phase's
// iteration. ok=false without an error means the degrade deadline
// expired: the caller falls back to its stale iterate for whatever is
// still missing.
func (p *phase) recv(kind Kind) (Message, bool, error) {
	if msg, ok := p.mb.takePending(kind, p.iter); ok {
		return msg, true, nil
	}
	if p.expired {
		return Message{}, false, nil
	}
	var retry <-chan time.Time
	switch {
	case p.pol != nil:
		retry = p.retry.C()
	case p.degrade == nil:
		p.degrade = realTimers{}.newTimer(p.wait)
	default:
		p.degrade.Reset(p.wait)
	}
	for {
		select {
		case msg, ok := <-p.mb.inbox:
			if !ok {
				return Message{}, false, ErrAborted
			}
			if !p.mb.fresh(msg) {
				continue
			}
			if msg.Kind == kind && msg.Iter == p.iter {
				p.mb.consume(msg)
				return msg, true, nil
			}
			p.mb.pending = append(p.mb.pending, msg)
		case <-retry:
			if p.attempt < p.pol.MaxRetries {
				if p.onRetry != nil {
					if err := p.onRetry(); err != nil {
						return Message{}, false, err
					}
				}
				p.attempt++
				p.pol.Tracer.Event(tracing.Context{}, "proto.retry",
					tracing.I64("iter", int64(p.iter)), tracing.I64("attempt", int64(p.attempt)))
				p.retry.Reset(p.pol.backoff(p.self, p.iter, p.attempt))
			}
		case <-p.degrade.C():
			if p.pol == nil {
				return Message{}, false, fmt.Errorf("kind %d iter %d: %w", kind, p.iter, ErrTimeout)
			}
			p.expired = true
			p.pol.Tracer.Event(tracing.Context{}, "proto.degrade",
				tracing.I64("iter", int64(p.iter)), tracing.I64("kind", int64(kind)))
			p.pol.Flight.Dump("degrade-deadline")
			return Message{}, false, nil
		case <-p.mb.ctx.Done():
			return Message{}, false, p.mb.ctx.Err()
		}
	}
}

// deadMaskPayload encodes the dead-agent set as wire indices; agents
// decode it from the control broadcast to route around dead peers.
func deadMaskPayload(dead []string) []float64 {
	if len(dead) == 0 {
		return nil
	}
	out := make([]float64, 0, len(dead))
	for _, id := range dead {
		if idx, ok := agentIndex(id); ok {
			out = append(out, float64(idx))
		}
	}
	return out
}

// link is one agent's end of the protocol under the run's failure
// policy: the agent bodies send, gather, wait for control and deliver
// their final message only through it.
type link struct {
	tr      Transport
	mb      *mailbox
	self    string
	coord   string
	timeout time.Duration
	// ret is nil under the plain policy; pol is then the zero value
	// (no tracer, no flight recorder).
	ret *retrier
	pol Resilience
}

// newLink opens agent self's link. opts.Resilience must already carry
// its defaults.
func newLink(ctx context.Context, tr Transport, tab *idTable, self string, opts RunOptions) (*link, error) {
	mb, err := newMailbox(ctx, tr, self, opts.Resilience != nil)
	if err != nil {
		return nil, err
	}
	l := &link{tr: tr, mb: mb, self: self, coord: tab.coord, timeout: opts.Timeout}
	if opts.Resilience != nil {
		l.ret = &retrier{t: tr}
		l.pol = *opts.Resilience
	}
	return l, nil
}

// send transmits m; the resilient policy records it for retransmission.
func (l *link) send(to string, m Message) error {
	if l.ret == nil {
		return l.tr.Send(to, m)
	}
	return l.ret.send(to, m)
}

// resend retransmits a recorded message (resilient policy only).
func (l *link) resend(to string, kind Kind, iter int) error {
	if l.ret == nil {
		return nil
	}
	return l.ret.resend(to, kind, iter)
}

// newRound starts round iter (prunes the retransmission records).
func (l *link) newRound(iter int) {
	if l.ret != nil {
		l.ret.newRound(iter)
	}
}

// phase opens one wait of round iter. factor scales the resilient degrade
// deadline along the deadline ladder; the plain policy bounds each
// message wait by the run's Timeout instead.
func (l *link) phase(iter, factor int, onRetry func() error) *phase {
	if l.ret == nil {
		return newPhase(l.mb, nil, l.self, iter, l.timeout, nil)
	}
	return newPhase(l.mb, &l.pol, l.self, iter, time.Duration(factor)*l.pol.MessageDeadline, onRetry)
}

// gather receives one phase of round iter: messages of kind until want of
// them have been accepted by take, which stores a message and reports
// false for a malformed, infeasible, dead or repeated sender. It returns
// the number accepted. Under the plain policy a rejected message is an
// error and so is a silent peer (ErrTimeout). Under the resilient policy a
// rejected message is skipped, a blocked wait runs onRetry, every accepted
// final is acknowledged, and the degrade deadline ends the gather early —
// the caller falls back to stale values for whatever is still missing.
func (l *link) gather(kind Kind, iter, want, factor int, onRetry func() error, take func(Message) bool) (int, error) {
	ph := l.phase(iter, factor, onRetry)
	defer ph.stop()
	recvd := 0
	for recvd < want {
		msg, ok, err := ph.recv(kind)
		if err != nil || !ok {
			return recvd, err
		}
		if !take(msg) {
			if l.ret == nil {
				return recvd, fmt.Errorf("rejected kind %d message from %q", kind, msg.From)
			}
			continue
		}
		recvd++
		if kind == KindFinal && l.ret != nil {
			if err := l.send(msg.From, Message{Kind: KindFinalAck, Iter: iter, From: l.self}); err != nil {
				return recvd, fmt.Errorf("final ack: %w", err)
			}
		}
	}
	return recvd, nil
}

// attempts is how many phases a control, final-ack or finals wait may
// spend before giving up: one under the plain policy, DeadAfter under
// the resilient one.
func (l *link) attempts() int {
	if l.ret == nil {
		return 1
	}
	return l.pol.DeadAfter
}

// control waits for the coordinator's control message of round iter,
// retransmitting the residual report while blocked. Rounds never advance
// past a missed control — the coordinator might have said stop — so the
// resilient policy retries the whole phase up to DeadAfter deadlines
// before concluding the coordinator is gone.
func (l *link) control(iter int) (Message, error) {
	onRetry := func() error { return l.resend(l.coord, KindReport, iter) }
	for try := 0; try < l.attempts(); try++ {
		ph := l.phase(iter, coordRoundFactor, onRetry)
		ctl, ok, err := ph.recv(KindControl)
		ph.stop()
		if err != nil || ok {
			return ctl, err
		}
	}
	return Message{}, ErrCoordinatorLost
}

// final delivers the agent's final message of round iter. The resilient
// policy then waits for the coordinator's ack, retransmitting while
// blocked; an unacked final is not an error — the coordinator may already
// hold it (ack lost) or has finalized around us by fallback.
func (l *link) final(iter int, m Message) error {
	if err := l.send(l.coord, m); err != nil || l.ret == nil {
		return err
	}
	onRetry := func() error { return l.resend(l.coord, KindFinal, iter) }
	for try := 0; try < l.attempts(); try++ {
		ph := l.phase(iter, coordRoundFactor, onRetry)
		_, ok, err := ph.recv(KindFinalAck)
		ph.stop()
		if err != nil || ok {
			return err
		}
	}
	return nil
}

// finals collects the coordinator's want final messages of round iter
// (see gather); the resilient policy retries up to DeadAfter deadlines
// and leaves whatever is still missing to missingFinal.
func (l *link) finals(iter, want int, onRetry func() error, take func(Message) bool) error {
	for try := 0; try < l.attempts() && want > 0; try++ {
		got, err := l.gather(KindFinal, iter, want, coordRoundFactor, onRetry, take)
		if err != nil {
			return err
		}
		want -= got
	}
	return nil
}

// missingFinal decides what front-end i's missing final routing means:
// the plain policy fails the run; the resilient one returns nil and the
// coordinator finalizes the row by proximity fallback.
func (l *link) missingFinal(i int) error {
	if l.ret == nil {
		return fmt.Errorf("coordinator: missing final routing from front-end %d", i)
	}
	return nil
}

// peers is an agent's view of its feasible peers — a front-end's
// datacenters or a datacenter's front-ends — across the rounds' gathers.
// got and stale are indexed by compact mask slot, dead by global peer
// index. Under the plain policy every gather completes, so no peer is
// ever stale or dead.
type peers struct {
	idx    []int32     // mask row or column: global peer index per slot
	ids    []string    // peer agent ids by global index
	prefix string      // agent id prefix of the peers ("fe-" or "dc-")
	pos    map[int]int // global peer index -> slot
	got    []bool
	stale  []int
	dead   []bool
}

func newPeers(idx []int32, ids []string, prefix string) *peers {
	p := &peers{
		idx: idx, ids: ids, prefix: prefix, pos: make(map[int]int, len(idx)),
		got: make([]bool, len(idx)), stale: make([]int, len(idx)), dead: make([]bool, len(ids)),
	}
	for t, g := range idx {
		p.pos[int(g)] = t
	}
	return p
}

// gather runs round iter's gather of kind from the live peers (see
// link.gather) and settles it.
func (p *peers) gather(l *link, kind Kind, iter, factor int, onRetry func() error, take func(Message) bool) error {
	if _, err := l.gather(kind, iter, p.open(), factor, onRetry, take); err != nil {
		return err
	}
	return p.settle(l, kind, iter)
}

// open starts a round's gather and returns the number of live peers.
func (p *peers) open() int {
	live := 0
	for t, g := range p.idx {
		p.got[t] = false
		if !p.dead[g] {
			live++
		}
	}
	return live
}

// accept returns the slot of msg's sender and marks it delivered, or
// false when msg does not carry payloadLen floats from a live feasible
// peer that has not yet delivered this round.
func (p *peers) accept(msg Message, payloadLen int) (int, bool) {
	var g int
	if !parseID(msg.From, p.prefix, &g) || len(msg.Payload) != payloadLen {
		return 0, false
	}
	t, ok := p.pos[g]
	if !ok || p.dead[g] || p.got[t] {
		return 0, false
	}
	p.got[t] = true
	return t, true
}

// markDead applies the coordinator's dead set — a control payload of
// wire indices, see deadMaskPayload — to the peers. It returns
// ErrDeclaredDead when self is on it.
func (p *peers) markDead(payload []float64, self string) error {
	for _, v := range payload {
		id := agentID(uint32(v))
		if id == self {
			return ErrDeclaredDead
		}
		var g int
		if parseID(id, p.prefix, &g) && g < len(p.dead) {
			p.dead[g] = true
		}
	}
	return nil
}

// resend retransmits the recorded kind/iter message to every live peer
// that has not delivered yet this round.
func (p *peers) resend(l *link, kind Kind, iter int) error {
	for t, g := range p.idx {
		if !p.dead[g] && !p.got[t] {
			if err := l.resend(p.ids[g], kind, iter); err != nil {
				return err
			}
		}
	}
	return nil
}

// settle closes round iter's gather of kind. A live peer that did not
// deliver is degraded to its previous iterate, which its slot still
// holds: its consecutive stale rounds are capped by StalenessCap, and a
// late arrival is from now on a duplicate.
func (p *peers) settle(l *link, kind Kind, iter int) error {
	for t, g := range p.idx {
		switch {
		case p.dead[g]:
		case p.got[t]:
			p.stale[t] = 0
		default:
			p.stale[t]++
			l.pol.Tracer.Event(tracing.Context{}, "proto.stale",
				tracing.I64("peer", int64(g)), tracing.I64("iter", int64(iter)))
			if p.stale[t] > l.pol.StalenessCap {
				return fmt.Errorf("%s stale %d rounds: %w", p.ids[g], p.stale[t], ErrStale)
			}
			l.mb.skipTo(p.ids[g], kind, iter)
		}
	}
	return nil
}
