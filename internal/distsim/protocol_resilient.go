package distsim

import (
	"context"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// chaosTrace enables stderr tracing of every degrade decision (stale
// fallbacks, missed reports, death declarations). Set UFC_CHAOS_DEBUG=1
// when a chaos run's replay diverges: diffing two traces pins the first
// decision that flipped.
var chaosTrace = os.Getenv("UFC_CHAOS_DEBUG") != ""

// This file implements the hardened variant of the 4-block ADM-G
// protocol. The numerical round structure is identical to protocol.go;
// what changes is the failure envelope around every message wait:
//
//   - every outbound message is recorded by a Retrier and retransmitted
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
//   - a front-end that dies before delivering its final routing is
//     finalized by proximity fallback: all of its demand goes to the
//     nearest datacenter.
//
// Determinism: message drops are pure hashes of (seed, link, kind, iter,
// attempt) in FaultTransport, crashes and partitions are keyed on the
// round number, and the degrade deadlines are orders of magnitude longer
// than the retransmission backoff — so for a fixed fault seed the set of
// messages that ultimately get through (and with them every float the
// protocol computes) replays identically run over run.

// floorKey identifies one inbound message stream for deduplication.
type floorKey struct {
	from string
	kind Kind
}

// resMailbox is the resilient protocol's receive buffer: it parks
// out-of-phase messages, suppresses duplicates by per-stream iteration
// floors, and surfaces duplicates to an onDup hook so the owner can
// retransmit the response the peer evidently lost.
type resMailbox struct {
	inbox   <-chan Message
	pending []Message
	ctx     context.Context
	floor   map[floorKey]int
	// onDup is invoked for every duplicate (a message at or below its
	// stream's floor). Duplicates signal that the peer has not seen our
	// response to the original; the hook retransmits it. May be nil.
	onDup func(m Message)
}

func newResMailbox(ctx context.Context, t Transport, id string) (*resMailbox, error) {
	in, err := t.Inbox(id)
	if err != nil {
		return nil, err
	}
	return &resMailbox{inbox: in, ctx: ctx, floor: make(map[floorKey]int)}, nil
}

// fresh reports whether m is above its stream's floor (not yet consumed
// or skipped). Stale messages trigger the onDup hook.
func (mb *resMailbox) fresh(m Message) bool {
	if m.Iter <= mb.floor[floorKey{from: m.From, kind: m.Kind}] {
		if mb.onDup != nil {
			mb.onDup(m)
		}
		return false
	}
	return true
}

// consume advances m's stream floor to its iteration.
func (mb *resMailbox) consume(m Message) {
	k := floorKey{from: m.From, kind: m.Kind}
	if m.Iter > mb.floor[k] {
		mb.floor[k] = m.Iter
	}
}

// skipTo records that the owner degraded past (from, kind) up to iter:
// the message is no longer wanted, and a late arrival must be treated as
// a duplicate (triggering the solicited-resend hook, which helps a slow
// peer catch up instead of feeding us a stale iterate).
func (mb *resMailbox) skipTo(from string, kind Kind, iter int) {
	k := floorKey{from: from, kind: kind}
	if iter > mb.floor[k] {
		mb.floor[k] = iter
	}
}

// phase is one bounded wait of a protocol round: receive messages of one
// kind/iteration, retransmitting via onRetry with backoff while blocked,
// and giving up at the degrade deadline.
type phase struct {
	mb      *resMailbox
	pol     *Resilience
	self    string
	iter    int
	attempt int
	onRetry func() error
	retry   waitTimer
	degrade waitTimer
	expired bool
}

func newPhase(mb *resMailbox, pol *Resilience, self string, iter int, onRetry func() error) *phase {
	return &phase{
		mb:      mb,
		pol:     pol,
		self:    self,
		iter:    iter,
		onRetry: onRetry,
		retry:   pol.tf.newTimer(pol.backoff(self, iter, 0)),
		degrade: pol.tf.newTimer(pol.MessageDeadline),
	}
}

func (p *phase) stop() {
	p.retry.Stop()
	p.degrade.Stop()
}

// recv returns the next fresh message matching kind and iter. ok=false
// without an error means the degrade deadline expired: the caller falls
// back to its stale iterate for whatever is still missing.
func (p *phase) recv(kind Kind, iter int) (Message, bool, error) {
	for idx := 0; idx < len(p.mb.pending); idx++ {
		msg := p.mb.pending[idx]
		if msg.Iter <= p.mb.floor[floorKey{from: msg.From, kind: msg.Kind}] {
			// Degraded past while parked; drop silently (the peer was
			// already answered or is being helped by skipTo's dup path).
			p.mb.pending = append(p.mb.pending[:idx], p.mb.pending[idx+1:]...)
			idx--
			continue
		}
		if msg.Kind == kind && msg.Iter == iter {
			p.mb.pending = append(p.mb.pending[:idx], p.mb.pending[idx+1:]...)
			p.mb.consume(msg)
			return msg, true, nil
		}
	}
	if p.expired {
		return Message{}, false, nil
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
			if msg.Kind == kind && msg.Iter == iter {
				p.mb.consume(msg)
				return msg, true, nil
			}
			p.mb.pending = append(p.mb.pending, msg)
		case <-p.retry.C():
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

// applyDeadMask decodes a control payload into the caller's peer masks.
// It returns ErrDeclaredDead when the caller itself is on the list.
func applyDeadMask(payload []float64, self string, deadFE, deadDC []bool) error {
	for _, v := range payload {
		idx := uint32(v)
		id := agentID(idx)
		if id == self {
			return ErrDeclaredDead
		}
		switch {
		case idx == 0:
		case idx%2 == 1:
			if i := int(idx-1) / 2; deadFE != nil && i < len(deadFE) {
				deadFE[i] = true
			}
		default:
			if j := int(idx-2) / 2; deadDC != nil && j < len(deadDC) {
				deadDC[j] = true
			}
		}
	}
	return nil
}

// controlPhase runs the end-of-round control wait shared by front-ends
// and datacenters: retransmit the residual report while blocked, and
// retry the whole phase up to DeadAfter deadlines before concluding the
// coordinator is gone. Rounds never advance past a missed control — the
// coordinator might have said stop.
func controlPhase(mb *resMailbox, pol *Resilience, ret *Retrier, tab *idTable, self string, iter int) (Message, error) {
	// The control answer legitimately takes a full coordinator gather
	// (coordRoundFactor deadlines) when the coordinator is degrading
	// around a dead agent — wait on that timescale, not the peer one.
	cpol := *pol
	cpol.MessageDeadline *= coordRoundFactor
	onRetry := func() error { return ret.Resend(tab.coord, KindReport, iter) }
	for try := 0; try < pol.DeadAfter; try++ {
		ph := newPhase(mb, &cpol, self, iter, onRetry)
		ctl, ok, err := ph.recv(KindControl, iter)
		ph.stop()
		if err != nil {
			return Message{}, err
		}
		if ok {
			return ctl, nil
		}
	}
	return Message{}, fmt.Errorf("%s iter %d control: %w", self, iter, ErrCoordinatorLost)
}

// finalPhase delivers the agent's final message and waits for the
// coordinator's ack, retransmitting while blocked. An unacked final is
// not an error: the coordinator may already hold it (ack lost) or has
// finalized around us by fallback.
func finalPhase(mb *resMailbox, pol *Resilience, ret *Retrier, tab *idTable, self string, iter int, final Message) error {
	if err := ret.Send(tab.coord, final); err != nil {
		return err
	}
	cpol := *pol
	cpol.MessageDeadline *= coordRoundFactor
	onRetry := func() error { return ret.Resend(tab.coord, KindFinal, iter) }
	for try := 0; try < pol.DeadAfter; try++ {
		ph := newPhase(mb, &cpol, self, iter, onRetry)
		_, ok, err := ph.recv(KindFinalAck, iter)
		ph.stop()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
	}
	return nil
}

// runFrontEndRes is the resilient front-end agent i (see runFrontEnd for
// the numerical round structure and the compact, mask-indexed layout of
// its vectors). Dead datacenters are tracked by global index.
func runFrontEndRes(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, i int, pol Resilience) error {
	inst := e.Instance()
	n := inst.Cloud.N()
	self := tab.fe[i]
	mb, err := newResMailbox(ctx, tr, self)
	if err != nil {
		return err
	}
	ret := NewRetrier(tr)
	// A duplicate routing ack path does not exist for front-ends: the only
	// inbound streams are aux, control and the final ack, none of which
	// solicit a resend from us beyond the proactive phase retries.
	cols := e.FeasibleCols(i)
	k := len(cols)
	pos := maskSlots(cols) // datacenter index j -> compact slot
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	loadScale, dualScale := e.LoadScale(), e.DualScale()

	aC := make([]float64, k)
	varphiC := make([]float64, k)
	lambdaC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	aTildeC := make([]float64, k)
	got := make([]bool, k)
	stale := make([]int, k)
	deadDC := make([]bool, n)
	ws := e.NewStepWorkspace()
	// A live datacenter may spend a full MessageDeadline degrading a
	// silent front-end before its ã goes out (deadline ladder, see
	// resilience.go) — wait twice that before falling back to stale.
	apol := pol
	apol.MessageDeadline *= auxDeadlineFactor

	for iter := 1; ; iter++ {
		ret.NewRound(iter)
		// One head-sampled root span per front-end iteration; its context
		// rides the routing records (and the residual report) through the
		// hub tree, so a single trace links this agent's round to every
		// forwarding hop and to the coordinator's gather.
		sp := pol.Tracer.Root("fe.iter")
		sp.Attr("fe", int64(i))
		sp.Attr("iter", int64(iter))
		if err := e.LambdaStepCompactInto(ws, i, aC, varphiC, lambdaTildeC); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		live := 0
		for t, j := range cols {
			got[t] = false
			if deadDC[j] {
				continue
			}
			live++
			if err := ret.Send(tab.dc[j], Message{
				Kind: KindRouting, Iter: iter, From: self,
				Payload: []float64{lambdaTildeC[t], varphiC[t]},
				Trace:   sp.Context(),
			}); err != nil {
				return fmt.Errorf("front-end %d iter %d send: %w", i, iter, err)
			}
		}

		// Gather ã from the live datacenters; a blocked wait retransmits
		// the routing rows the missing peers may never have received.
		onRetry := func() error {
			for t, j := range cols {
				if !deadDC[j] && !got[t] {
					if err := ret.Resend(tab.dc[j], KindRouting, iter); err != nil {
						return err
					}
				}
			}
			return nil
		}
		ph := newPhase(mb, &apol, self, iter, onRetry)
		for recvd := 0; recvd < live; {
			msg, ok, err := ph.recv(KindAux, iter)
			if err != nil {
				ph.stop()
				return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
			}
			if !ok {
				break // degrade deadline: fall back to stale ã for the rest
			}
			var j int
			if !parseID(msg.From, "dc-", &j) || len(msg.Payload) != 1 {
				continue
			}
			t, ok := pos[j]
			if !ok || deadDC[j] || got[t] {
				continue
			}
			aTildeC[t] = msg.Payload[0]
			got[t] = true
			recvd++
		}
		ph.stop()
		for t, j := range cols {
			if deadDC[j] {
				continue
			}
			if got[t] {
				stale[t] = 0
				continue
			}
			// Stale-block fallback: reuse the previous round's ã_ij.
			if chaosTrace {
				fmt.Fprintf(os.Stderr, "trace: %s stale aux dc-%d @%d\n", self, j, iter)
			}
			stale[t]++
			if stale[t] > pol.StalenessCap {
				return fmt.Errorf("front-end %d iter %d: datacenter %d stale %d rounds: %w",
					i, iter, j, stale[t], ErrStale)
			}
			mb.skipTo(tab.dc[j], KindAux, iter)
		}

		// Dual prediction and Gaussian back substitution; dead columns are
		// frozen (their duals stop moving and drop out of the residual).
		var residual float64
		for t, j := range cols {
			if deadDC[j] {
				continue
			}
			varphiTilde := varphiC[t] - rho*(aTildeC[t]-lambdaTildeC[t])
			newVarphi := varphiC[t] + eps*(varphiTilde-varphiC[t])
			if d := math.Abs(newVarphi-varphiC[t]) / dualScale; d > residual {
				residual = d
			}
			varphiC[t] = newVarphi
			aC[t] += eps * (aTildeC[t] - aC[t])
			if d := math.Abs(aC[t]-lambdaTildeC[t]) / loadScale; d > residual {
				residual = d
			}
			lambdaC[t] = lambdaTildeC[t]
		}

		if err := ret.Send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
			Trace: sp.Context(),
		}); err != nil {
			return fmt.Errorf("front-end %d iter %d report: %w", i, iter, err)
		}
		sp.End()
		ctl, err := controlPhase(mb, &pol, ret, tab, self, iter)
		if err != nil {
			return err
		}
		if err := applyDeadMask(ctl.Payload, self, nil, deadDC); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		if ctl.Stop {
			final := finalRouting(i, n, cols, lambdaC)
			return finalPhase(mb, &pol, ret, tab, self, iter, Message{
				Kind: KindFinal, Iter: iter, From: self, Payload: final,
			})
		}
	}
}

// runDatacenterRes is the resilient datacenter agent j (see runDatacenter
// for the numerical round structure and the compact, mask-indexed layout
// of its vectors). Dead front-ends are tracked by global index.
func runDatacenterRes(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, j int, pol Resilience) error {
	inst := e.Instance()
	m := inst.Cloud.M()
	self := tab.dc[j]
	mb, err := newResMailbox(ctx, tr, self)
	if err != nil {
		return err
	}
	ret := NewRetrier(tr)
	// A duplicate routing row means the front-end never saw our ã for that
	// round: retransmit it (solicited resend). Retention is two rounds; a
	// peer further behind is beyond catch-up and will be declared dead.
	mb.onDup = func(m Message) {
		if m.Kind == KindRouting {
			_ = ret.Resend(m.From, KindAux, m.Iter) //ufc:discard solicited resend is best-effort; the peer's own retries and the coordinator's liveness tracking own recovery
		}
	}
	rows := e.FeasibleRows(j)
	k := len(rows)
	pos := maskSlots(rows) // front-end index i -> compact slot
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	dualScale := e.DualScale()
	disableCorrection := e.Options().DisableCorrection

	aC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	varphiC := make([]float64, k)
	aTildeC := make([]float64, k)
	got := make([]bool, k)
	stale := make([]int, k)
	deadFE := make([]bool, m)
	// The trace context of each front-end's current routing row, echoed on
	// the ã reply so the front-end's trace covers the round trip.
	feTrace := make([]tracing.Context, k)
	ws := e.NewStepWorkspace()
	var mu, nu, phi float64

	for iter := 1; ; iter++ {
		ret.NewRound(iter)
		live := 0
		for t, i := range rows {
			got[t] = false
			if !deadFE[i] {
				live++
			}
		}
		// Gather routing rows; a blocked wait retransmits the previous
		// round's ã (the missing peers may be stuck waiting for it).
		onRetry := func() error {
			for t, i := range rows {
				if !deadFE[i] && !got[t] {
					if err := ret.Resend(tab.fe[i], KindAux, iter-1); err != nil {
						return err
					}
				}
			}
			return nil
		}
		ph := newPhase(mb, &pol, self, iter, onRetry)
		for recvd := 0; recvd < live; {
			msg, ok, err := ph.recv(KindRouting, iter)
			if err != nil {
				ph.stop()
				return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
			}
			if !ok {
				break // degrade deadline: reuse the stale routing rows
			}
			var i int
			if !parseID(msg.From, "fe-", &i) || len(msg.Payload) != 2 {
				continue
			}
			t, ok := pos[i]
			if !ok || deadFE[i] || got[t] {
				continue
			}
			lambdaTildeC[t] = msg.Payload[0]
			varphiC[t] = msg.Payload[1]
			feTrace[t] = msg.Trace
			got[t] = true
			recvd++
		}
		ph.stop()
		for t, i := range rows {
			if deadFE[i] {
				continue
			}
			if got[t] {
				stale[t] = 0
				continue
			}
			if chaosTrace {
				fmt.Fprintf(os.Stderr, "trace: %s stale routing fe-%d @%d\n", self, i, iter)
			}
			stale[t]++
			if stale[t] > pol.StalenessCap {
				return fmt.Errorf("datacenter %d iter %d: front-end %d stale %d rounds: %w",
					j, iter, i, stale[t], ErrStale)
			}
			feTrace[t] = tracing.Context{} // stale row: don't echo an old trace
			mb.skipTo(tab.fe[i], KindRouting, iter)
		}

		var sumA float64
		for t := 0; t < k; t++ {
			sumA += aC[t]
		}
		muTilde := e.MuStep(j, sumA, nu, phi)
		nuTilde := e.NuStep(j, sumA, muTilde, phi)
		if err := e.AStepCompactInto(ws, j, lambdaTildeC, varphiC, muTilde, nuTilde, phi, aTildeC); err != nil {
			return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
		}
		var sumATilde float64
		for t := 0; t < k; t++ {
			sumATilde += aTildeC[t]
		}
		phiTilde := phi - rho*e.PowerBalance(j, sumATilde, muTilde, nuTilde)

		for t, i := range rows {
			if deadFE[i] {
				continue
			}
			if err := ret.Send(tab.fe[i], Message{
				Kind: KindAux, Iter: iter, From: self,
				Payload: []float64{aTildeC[t]},
				Trace:   feTrace[t],
			}); err != nil {
				return fmt.Errorf("datacenter %d iter %d send: %w", j, iter, err)
			}
		}

		newPhi := phi + eps*(phiTilde-phi)
		residual := math.Abs(newPhi-phi) / dualScale
		phi = newPhi
		var aDelta float64
		for t := 0; t < k; t++ {
			old := aC[t]
			next := old + eps*(aTildeC[t]-old)
			aDelta += next - old
			aC[t] = next
		}
		nuOld := nu
		if disableCorrection {
			nu = nuTilde
			mu = muTilde
		} else {
			nu = nuOld + eps*(nuTilde-nuOld) + aDelta
			mu = mu + eps*(muTilde-mu) - (nu - nuOld) + aDelta
		}

		if err := ret.Send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
		}); err != nil {
			return fmt.Errorf("datacenter %d iter %d report: %w", j, iter, err)
		}
		ctl, err := controlPhase(mb, &pol, ret, tab, self, iter)
		if err != nil {
			return err
		}
		if err := applyDeadMask(ctl.Payload, self, deadFE, nil); err != nil {
			return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
		}
		if ctl.Stop {
			return finalPhase(mb, &pol, ret, tab, self, iter, Message{
				Kind: KindFinal, Iter: iter, From: self,
				Payload: []float64{float64(j), mu, nu, phi},
			})
		}
	}
}

// runCoordinatorRes gathers residual reports with liveness tracking,
// declares persistently silent agents dead, broadcasts the dead set with
// each control message, and finalizes missing front-end routings by
// proximity fallback.
func runCoordinatorRes(ctx context.Context, e *core.Engine, t Transport, tab *idTable, pol Resilience) (*coordResult, error) {
	inst := e.Instance()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	opts := e.Options()
	self := tab.coord
	// The gather deadline must dominate a worker's worst-case round: an
	// agent degrading around dead peers spends up to two MessageDeadlines
	// before its report goes out (deadline ladder, see resilience.go).
	// The third leaves a full deadline of margin, so a live agent's
	// report never races the cutoff — only structurally absent agents
	// are counted missed, which keeps liveness decisions (and therefore
	// replays) deterministic.
	pol.MessageDeadline *= coordRoundFactor
	mb, err := newResMailbox(ctx, t, self)
	if err != nil {
		return nil, err
	}
	ret := NewRetrier(t)
	stats := &core.Stats{}
	degr := &Degradation{}
	degraded := false

	agents := make([]string, 0, m+n)
	agents = append(agents, tab.fe...)
	agents = append(agents, tab.dc...)
	missed := make([]int, m+n)
	dead := make([]bool, m+n)
	got := make([]bool, m+n)
	reported := make([]float64, m+n)
	// Each agent's current report trace, echoed on its control reply so a
	// front-end's iteration trace covers the full round trip ("and back").
	reportTrace := make([]tracing.Context, m+n)

	liveCount := func() int {
		c := 0
		for k := range dead {
			if !dead[k] {
				c++
			}
		}
		return c
	}
	agentSlot := func(id string) int {
		var i int
		if parseID(id, "fe-", &i) && i < m {
			return i
		}
		if parseID(id, "dc-", &i) && i < n {
			return m + i
		}
		return -1
	}

	// A duplicate report means the agent never saw the control we answered
	// it with; a duplicate final means our ack was lost. Retransmit both.
	// A duplicate report is also proof of life: the sender is merely slow,
	// not gone, so its missed-round count restarts. Death is thereby
	// reserved for structural silence (crash, partition) — an agent whose
	// reports land late under scheduler pressure can delay a round but can
	// never be spuriously declared dead, which keeps the dead set (and so
	// the degraded trajectory) identical across same-seed replays.
	mb.onDup = func(msg Message) {
		switch msg.Kind {
		case KindReport:
			if k := agentSlot(msg.From); k >= 0 && !dead[k] {
				missed[k] = 0
			}
			_ = ret.Resend(msg.From, KindControl, msg.Iter) //ufc:discard solicited resend is best-effort; the agent keeps retrying its report until the control lands
		case KindFinal:
			_ = ret.Resend(msg.From, KindFinalAck, msg.Iter) //ufc:discard solicited resend is best-effort; an unacked agent retries its final and re-solicits
		}
	}

	broadcast := func(iter int, stop bool, mask []float64) error {
		for k, id := range agents {
			if dead[k] {
				continue
			}
			if err := ret.Send(id, Message{
				Kind: KindControl, Iter: iter, From: self, Stop: stop, Payload: mask,
				Trace: reportTrace[k],
			}); err != nil {
				return err
			}
		}
		return nil
	}

	lastIter := 0
	var mask []float64
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		ret.NewRound(iter)
		for k := range got {
			got[k] = false
		}
		// Gather reports from live agents; a blocked wait retransmits the
		// previous control to the silent ones (they may be stuck in the
		// previous round's control phase).
		onRetry := func() error {
			if iter == 1 {
				return nil
			}
			for k, id := range agents {
				if !dead[k] && !got[k] {
					if err := ret.Resend(id, KindControl, iter-1); err != nil {
						return err
					}
				}
			}
			return nil
		}
		ph := newPhase(mb, &pol, self, iter, onRetry)
		live := liveCount()
		for recvd := 0; recvd < live; {
			msg, ok, err := ph.recv(KindReport, iter)
			if err != nil {
				ph.stop()
				return nil, fmt.Errorf("coordinator iter %d: %w", iter, err)
			}
			if !ok {
				break // degrade deadline: count the silent agents as missed
			}
			k := agentSlot(msg.From)
			if k < 0 || dead[k] || got[k] || len(msg.Payload) != 1 {
				continue
			}
			reported[k] = msg.Payload[0]
			reportTrace[k] = msg.Trace
			if msg.Trace.Valid() {
				pol.Tracer.Event(msg.Trace, "coord.report", tracing.I64("iter", int64(iter)), tracing.Attr{})
			}
			got[k] = true
			recvd++
		}
		ph.stop()

		missedThisRound := 0
		var residual float64
		for k := range agents {
			if dead[k] {
				continue
			}
			if got[k] {
				missed[k] = 0
				if reported[k] > residual {
					residual = reported[k]
				}
				continue
			}
			missedThisRound++
			degr.MissedReports++
			missed[k]++
			if chaosTrace {
				fmt.Fprintf(os.Stderr, "trace: coord missed %s @%d (count %d)\n", agents[k], iter, missed[k])
			}
			reportTrace[k] = tracing.Context{} // missed round: no trace to echo
			mb.skipTo(agents[k], KindReport, iter)
			if missed[k] >= pol.DeadAfter {
				dead[k] = true
				degr.DeadAgents = append(degr.DeadAgents, agents[k])
				pol.Tracer.Event(tracing.Context{}, "coord.dead",
					tracing.I64("iter", int64(iter)), tracing.I64("agent", int64(k)))
				pol.Flight.Dump("agent-dead")
				if chaosTrace {
					fmt.Fprintf(os.Stderr, "trace: coord declared %s dead @%d\n", agents[k], iter)
				}
			}
		}
		if missedThisRound > 0 {
			degraded = true
			degr.StaleRounds++
			pol.Tracer.Event(tracing.Context{}, "coord.round",
				tracing.I64("iter", int64(iter)), tracing.I64("missed", int64(missedThisRound)))
		}

		stats.Iterations = iter
		stats.FinalResidual = residual
		opts.Probe.ObserveIteration(residual)
		if opts.TrackResiduals {
			stats.ResidualTrace = append(stats.ResidualTrace, residual)
		}
		// Stop only on a fully-reported round below tolerance: a round
		// with missing reports may under-estimate the true residual.
		stop := (missedThisRound == 0 && residual <= opts.Tolerance) || iter == opts.MaxIterations
		stats.Converged = residual <= opts.Tolerance && missedThisRound == 0
		mask = deadMaskPayload(degr.DeadAgents)
		if err := broadcast(iter, stop, mask); err != nil {
			return nil, fmt.Errorf("coordinator iter %d broadcast: %w", iter, err)
		}
		if stop {
			lastIter = iter
			break
		}
	}
	// Distributed runs always start from the zero iterate.
	opts.Probe.ObserveSolve(stats.Iterations, stats.FinalResidual, stats.Converged, false)

	// Collect finals from the live agents, acking each so the senders can
	// retire their retransmission loops. A blocked wait retransmits the
	// stop control — an agent stuck in its control phase has not seen it.
	lambda := make([][]float64, m)
	haveFinal := make([]bool, m+n)
	need := liveCount()
	onRetry := func() error {
		for k, id := range agents {
			if !dead[k] && !haveFinal[k] {
				if err := ret.Resend(id, KindControl, lastIter); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for try := 0; try < pol.DeadAfter && need > 0; try++ {
		ph := newPhase(mb, &pol, self, lastIter, onRetry)
		for need > 0 {
			msg, ok, err := ph.recv(KindFinal, lastIter)
			if err != nil {
				ph.stop()
				return nil, fmt.Errorf("coordinator finals: %w", err)
			}
			if !ok {
				break
			}
			k := agentSlot(msg.From)
			if k < 0 || haveFinal[k] {
				continue
			}
			haveFinal[k] = true
			need--
			if err := ret.Send(msg.From, Message{
				Kind: KindFinalAck, Iter: lastIter, From: self,
			}); err != nil {
				return nil, fmt.Errorf("coordinator final ack: %w", err)
			}
			if len(msg.Payload) == n+1 {
				if i := int(msg.Payload[0]); i >= 0 && i < m && msg.From == tab.fe[i] {
					lambda[i] = append([]float64(nil), msg.Payload[1:]...)
				}
			}
		}
		ph.stop()
	}
	// Proximity fallback: a front-end that died (or went silent) before
	// delivering its final routing sends all demand to its nearest
	// datacenter — the degradation policy for crashed demand sources.
	for i := 0; i < m; i++ {
		if lambda[i] != nil {
			continue
		}
		row := make([]float64, n)
		best := 0
		for j := 1; j < n; j++ {
			if inst.Cloud.LatencySec(i, j) < inst.Cloud.LatencySec(i, best) {
				best = j
			}
		}
		row[best] = inst.Arrivals[i]
		lambda[i] = row
		degr.ProximityFrontEnds = append(degr.ProximityFrontEnds, i)
		degraded = true
	}
	if len(degr.DeadAgents) > 0 || degr.MissedReports > 0 {
		degraded = true
	}
	if !degraded {
		degr = nil
	}
	return &coordResult{lambda: lambda, stats: stats, degr: degr}, nil
}
