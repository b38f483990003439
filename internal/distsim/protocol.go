package distsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry/tracing"
)

// Protocol errors.
var (
	ErrTimeout = errors.New("distsim: timed out waiting for a message")
	ErrAborted = errors.New("distsim: protocol aborted")
)

// RunOptions configures a distributed run.
type RunOptions struct {
	Solver core.Options
	// Timeout bounds each individual message wait (default 30s). It
	// applies to the plain fail-fast policy; with Resilience set the
	// per-phase MessageDeadline governs waits instead.
	Timeout time.Duration
	// Resilience, when non-nil, runs the agents under the resilient
	// failure policy: bounded retransmission with backoff, duplicate
	// suppression, per-phase degrade deadlines with stale-iterate
	// fallback, and coordinator liveness tracking with proximity-routing
	// finalization for dead front-ends. Nil runs the plain fail-fast
	// policy: the first lost, late or malformed message fails the run.
	Resilience *Resilience
}

// Degradation reports how a resilient run deviated from fault-free
// operation. Nil on a Result means the run saw no degradation at all.
type Degradation struct {
	// DeadAgents are agents the coordinator declared dead after
	// Resilience.DeadAfter consecutive missed reports.
	DeadAgents []string
	// MissedReports counts report slots that hit the degrade deadline.
	MissedReports int
	// StaleRounds counts coordinator rounds completed with at least one
	// missing report.
	StaleRounds int
	// ProximityFrontEnds lists front-ends whose final routing was
	// reconstructed by proximity fallback (all load to the nearest
	// datacenter) because the agent died before delivering it.
	ProximityFrontEnds []int
	// WorkerErrors are failures of local non-coordinator agents that the
	// resilient run tolerated (e.g. simulated crashes).
	WorkerErrors []string
}

// Result of a distributed run.
type Result struct {
	Allocation *core.Allocation
	Breakdown  core.Breakdown
	Stats      *core.Stats
	// Degradation is non-nil when a resilient run degraded (dead agents,
	// missed reports, proximity fallback or tolerated worker failures).
	Degradation *Degradation
}

// Run executes the distributed 4-block ADM-G protocol over the transport:
// M front-end agents, N datacenter agents and one coordinator exchange the
// messages of Fig. 2 until the coordinator detects convergence. The caller
// supplies a transport already registered with the ids of AllAgentIDs.
// Cancelling ctx aborts the protocol between message waits and iteration
// phases.
func Run(ctx context.Context, inst *core.Instance, opts RunOptions, transport Transport) (*Result, error) {
	return RunAgents(ctx, inst, opts, transport, allIDs(inst.Cloud.M(), inst.Cloud.N()))
}

// RunAgents runs only the named agents ("fe-<i>", "dc-<j>", "coord") over
// the transport; the remaining agents are expected to run elsewhere (other
// goroutines or other processes connected to the same hub). Every process
// must construct the agents from the same instance and solver options —
// the engine is deterministic, so all participants agree on the effective
// parameters. The Result is non-nil only when the coordinator is among the
// local agents; other participants receive (nil, nil) on clean shutdown.
func RunAgents(ctx context.Context, inst *core.Instance, opts RunOptions, transport Transport, agentIDs []string) (*Result, error) {
	engine, err := core.NewEngine(inst, opts.Solver)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if ctx == nil {
		// A nil context used to be silently promoted to context.Background(),
		// which detached the whole protocol from caller cancellation; every
		// entry point is context-first now, so a nil here is a caller bug.
		return nil, fmt.Errorf("distsim: nil context: %w", core.ErrBadOptions)
	}
	resilient := opts.Resilience != nil
	if resilient {
		pol := opts.Resilience.withDefaults()
		opts.Resilience = &pol
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tab := newIDTable(m, n)

	type launch struct {
		id  string
		run func() error
	}
	var launches []launch
	hasCoord := false
	resCh := make(chan *coordResult, 1)
	for _, id := range agentIDs {
		var i, j int
		switch {
		case id == coordID():
			hasCoord = true
			launches = append(launches, launch{id: id, run: func() error {
				res, err := runCoordinator(ctx, engine, transport, tab, opts)
				if err != nil {
					return err
				}
				resCh <- res
				return nil
			}})
		case parseID(id, "fe-", &i) && i >= 0 && i < m:
			launches = append(launches, launch{id: id, run: func() error {
				return runFrontEnd(ctx, engine, transport, tab, i, opts)
			}})
		case parseID(id, "dc-", &j) && j >= 0 && j < n:
			launches = append(launches, launch{id: id, run: func() error {
				return runDatacenter(ctx, engine, transport, tab, j, opts)
			}})
		default:
			return nil, fmt.Errorf("distsim: agent id %q invalid for a %dx%d cloud", id, m, n)
		}
	}

	type workerErr struct {
		id  string
		err error
	}
	errCh := make(chan workerErr, len(launches))
	for _, l := range launches {
		go func(id string, run func() error) { errCh <- workerErr{id: id, err: run()} }(l.id, l.run)
	}
	var firstErr error
	var workerErrs []string
	for range launches {
		we := <-errCh
		if resilient {
			// Any exited agent — finished or failed — stops reading its
			// inbox while stragglers may still retransmit to it. Drain it
			// so a full mailbox can never block live senders and cascade
			// into a fleet-wide deadlock on a synchronous transport.
			go drainInbox(transport, we.id)
		}
		if we.err == nil {
			continue
		}
		if resilient && we.id != tab.coord {
			// Degraded operation tolerates non-coordinator failures
			// (crashed or declared-dead agents); the coordinator routes
			// around them and still produces a result.
			workerErrs = append(workerErrs, we.id+": "+we.err.Error())
			continue
		}
		if firstErr == nil {
			firstErr = we.err
			// Unblock everything else.
			_ = transport.Close() //ufc:discard firstErr is the failure being reported; Close is only a wakeup
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !hasCoord {
		return nil, nil
	}
	res := <-resCh

	state := core.NewState(m, n)
	for i := 0; i < m; i++ {
		copy(state.Lambda[i], res.lambda[i])
	}
	alloc := engine.Finalize(state)
	degr := res.degr
	if len(workerErrs) > 0 {
		if degr == nil {
			degr = &Degradation{}
		}
		degr.WorkerErrors = workerErrs
	}
	return &Result{
		Allocation:  alloc,
		Breakdown:   core.Evaluate(inst, alloc),
		Stats:       res.stats,
		Degradation: degr,
	}, nil
}

// drainInbox consumes a failed worker's mailbox until the transport
// closes it. Without a reader, peer retransmissions aimed at the dead
// agent would fill its bounded inbox and block the senders — and with a
// synchronous in-process transport that backpressure cascades into a
// fleet-wide deadlock.
func drainInbox(t Transport, id string) {
	in, err := t.Inbox(id)
	if err != nil {
		return
	}
	for range in {
	}
}

// parseID extracts the integer suffix of ids like "fe-3".
func parseID(id, prefix string, out *int) bool {
	if len(id) <= len(prefix) || id[:len(prefix)] != prefix {
		return false
	}
	v := 0
	for _, ch := range id[len(prefix):] {
		if ch < '0' || ch > '9' {
			return false
		}
		v = v*10 + int(ch-'0')
	}
	*out = v
	return true
}

// AllAgentIDs returns the transport ids required by Run for an M×N cloud:
// fe-0..fe-(M-1), dc-0..dc-(N-1) and coord.
func AllAgentIDs(m, n int) []string { return allIDs(m, n) }

// idTable precomputes the agent id strings of an M×N cloud so the
// per-iteration send loops never format ids (each protocol iteration
// addresses ~2·M·N+2·(M+N) messages).
type idTable struct {
	fe, dc []string
	coord  string
}

func newIDTable(m, n int) *idTable {
	t := &idTable{fe: make([]string, m), dc: make([]string, n), coord: coordID()}
	for i := range t.fe {
		t.fe[i] = feID(i)
	}
	for j := range t.dc {
		t.dc[j] = dcID(j)
	}
	return t
}

type coordResult struct {
	lambda [][]float64
	stats  *core.Stats
	degr   *Degradation
}

// runFrontEnd is the front-end proxy agent i: it performs the
// λ-minimization, exchanges (λ̃, φ) with the datacenters, applies the dual
// update and Gaussian back-substitution for its row of a and φ, and
// reports its residual contribution. Its per-iteration state lives in
// compact vectors indexed by the engine's mask row FeasibleCols(i), and
// it exchanges messages only across feasible (front-end, datacenter)
// pairs, so wire traffic per iteration scales with the mask size instead
// of M·N — on a hub tree with latency-local regions, the cross-pair
// traffic this removes is exactly the traffic that would otherwise
// transit the root. A dense engine's mask is full, and the agent then
// exchanges every pair in ascending order. Datacenters the coordinator
// declares dead (resilient policy only) are tracked by global index and
// their columns frozen.
//
// The float expressions and their evaluation order are the engine's, and
// the compact vectors enumerate the same ascending mask indices as the
// engine's loops, so a distributed solve is bit-identical to the
// in-process one.
func runFrontEnd(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, i int, opts RunOptions) error {
	n := e.Instance().Cloud.N()
	self := tab.fe[i]
	l, err := newLink(ctx, tr, tab, self, opts)
	if err != nil {
		return err
	}
	cols := e.FeasibleCols(i)
	k := len(cols)
	dcs := newPeers(cols, tab.dc, "dc-")
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	loadScale, dualScale := e.LoadScale(), e.DualScale()

	aC := make([]float64, k)
	varphiC := make([]float64, k)
	lambdaC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	aTildeC := make([]float64, k)
	ws := e.NewStepWorkspace()

	var iter int
	// A blocked aux wait retransmits the routing rows the missing
	// datacenters may never have received.
	resendRouting := func() error { return dcs.resend(l, KindRouting, iter) }
	takeAux := func(msg Message) bool {
		t, ok := dcs.accept(msg, 1)
		if ok {
			aTildeC[t] = msg.Payload[0]
		}
		return ok
	}

	for iter = 1; ; iter++ {
		l.newRound(iter)
		// One head-sampled root span per front-end iteration; its context
		// rides the routing records (and the residual report) through the
		// hub tree, so a single trace links this agent's round to every
		// forwarding hop and to the coordinator's gather.
		sp := l.pol.Tracer.Root("fe.iter")
		sp.Attr("fe", int64(i))
		sp.Attr("iter", int64(iter))
		if err := e.LambdaStepCompactInto(ws, i, aC, varphiC, lambdaTildeC); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		for t, j := range cols {
			if dcs.dead[j] {
				continue
			}
			if err := l.send(tab.dc[j], Message{
				Kind: KindRouting, Iter: iter, From: self,
				Payload: []float64{lambdaTildeC[t], varphiC[t]},
				Trace:   sp.Context(),
			}); err != nil {
				return fmt.Errorf("front-end %d iter %d send: %w", i, iter, err)
			}
		}
		if err := dcs.gather(l, KindAux, iter, auxDeadlineFactor, resendRouting, takeAux); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}

		// Dual prediction and Gaussian back substitution for this row;
		// dead columns are frozen (their duals stop moving and drop out of
		// the residual).
		var residual float64
		for t, j := range cols {
			if dcs.dead[j] {
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

		if err := l.send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
			Trace: sp.Context(),
		}); err != nil {
			return fmt.Errorf("front-end %d iter %d report: %w", i, iter, err)
		}
		sp.End()
		ctl, err := l.control(iter)
		if err != nil {
			return fmt.Errorf("front-end %d iter %d control: %w", i, iter, err)
		}
		if err := dcs.markDead(ctl.Payload, self); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		if ctl.Stop {
			// The final payload is i, then the routing row scattered back
			// to full length N; off-mask entries stay zero.
			final := make([]float64, n+1)
			final[0] = float64(i)
			for t, j := range cols {
				final[1+int(j)] = lambdaC[t]
			}
			return l.final(iter, Message{Kind: KindFinal, Iter: iter, From: self, Payload: final})
		}
	}
}

// runDatacenter is the datacenter agent j: it performs the μ-, ν- and
// a-minimizations, sends ã back to the front-ends, applies the dual update
// and Gaussian back substitution for its column, and reports its residual
// contribution. Like runFrontEnd it works over compact vectors indexed by
// the mask column FeasibleRows(j), and tracks dead front-ends by global
// index. A datacenter outside every front-end's cutoff (an empty column)
// still runs: it computes its μ/ν/φ updates over an empty load column —
// matching the engine's iterate exactly — and keeps reporting to the
// coordinator.
func runDatacenter(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, j int, opts RunOptions) error {
	self := tab.dc[j]
	l, err := newLink(ctx, tr, tab, self, opts)
	if err != nil {
		return err
	}
	// A duplicate routing row means the front-end never saw our ã for that
	// round: retransmit it (solicited resend). Retention is two rounds; a
	// peer further behind is beyond catch-up and will be declared dead.
	l.mb.onDup = func(m Message) {
		if m.Kind == KindRouting {
			_ = l.resend(m.From, KindAux, m.Iter) //ufc:discard solicited resend is best-effort; the peer's own retries and the coordinator's liveness tracking own recovery
		}
	}
	rows := e.FeasibleRows(j)
	k := len(rows)
	fes := newPeers(rows, tab.fe, "fe-")
	rho, eps := e.Rho(), e.EffectiveEpsilon()
	dualScale := e.DualScale()
	disableCorrection := e.Options().DisableCorrection

	aC := make([]float64, k)
	lambdaTildeC := make([]float64, k)
	varphiC := make([]float64, k)
	aTildeC := make([]float64, k)
	// The trace context of each front-end's current routing row, echoed on
	// the ã reply so the front-end's trace covers the round trip; a stale
	// row echoes none.
	feTrace := make([]tracing.Context, k)
	ws := e.NewStepWorkspace()
	var mu, nu, phi float64

	var iter int
	// A blocked routing wait retransmits the previous round's ã: the
	// missing front-ends may be stuck waiting for it.
	resendAux := func() error { return fes.resend(l, KindAux, iter-1) }
	takeRouting := func(msg Message) bool {
		t, ok := fes.accept(msg, 2)
		if ok {
			lambdaTildeC[t] = msg.Payload[0]
			varphiC[t] = msg.Payload[1]
			feTrace[t] = msg.Trace
		}
		return ok
	}

	for iter = 1; ; iter++ {
		l.newRound(iter)
		clear(feTrace)
		if err := fes.gather(l, KindRouting, iter, routingDeadlineFactor, resendAux, takeRouting); err != nil {
			return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
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
			if fes.dead[i] {
				continue
			}
			if err := l.send(tab.fe[i], Message{
				Kind: KindAux, Iter: iter, From: self,
				Payload: []float64{aTildeC[t]},
				Trace:   feTrace[t],
			}); err != nil {
				return fmt.Errorf("datacenter %d iter %d send: %w", j, iter, err)
			}
		}

		// Gaussian back substitution for this column (same accumulation
		// order as the engine's correction).
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

		if err := l.send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
		}); err != nil {
			return fmt.Errorf("datacenter %d iter %d report: %w", j, iter, err)
		}
		ctl, err := l.control(iter)
		if err != nil {
			return fmt.Errorf("datacenter %d iter %d control: %w", j, iter, err)
		}
		if err := fes.markDead(ctl.Payload, self); err != nil {
			return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
		}
		if ctl.Stop {
			return l.final(iter, Message{
				Kind: KindFinal, Iter: iter, From: self,
				Payload: []float64{float64(j), mu, nu, phi},
			})
		}
	}
}

// runCoordinator gathers per-iteration residual reports, decides
// convergence, broadcasts control messages, and collects the final
// routing. Under the resilient policy it also tracks liveness: it declares
// persistently silent agents dead, broadcasts the dead set with each
// control message, and finalizes missing front-end routings by proximity
// fallback.
func runCoordinator(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, run RunOptions) (*coordResult, error) {
	inst := e.Instance()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	opts := e.Options()
	self := tab.coord
	l, err := newLink(ctx, tr, tab, self, run)
	if err != nil {
		return nil, err
	}
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
	l.mb.onDup = func(msg Message) {
		switch msg.Kind {
		case KindReport:
			if k := agentSlot(msg.From); k >= 0 && !dead[k] {
				missed[k] = 0
			}
			_ = l.resend(msg.From, KindControl, msg.Iter) //ufc:discard solicited resend is best-effort; the agent keeps retrying its report until the control lands
		case KindFinal:
			_ = l.resend(msg.From, KindFinalAck, msg.Iter) //ufc:discard solicited resend is best-effort; an unacked agent retries its final and re-solicits
		}
	}

	var iter int
	// A blocked report wait retransmits the previous control to the silent
	// agents: they may be stuck in the previous round's control phase.
	resendControl := func() error {
		if iter == 1 {
			return nil
		}
		for k, id := range agents {
			if !dead[k] && !got[k] {
				if err := l.resend(id, KindControl, iter-1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	takeReport := func(msg Message) bool {
		k := agentSlot(msg.From)
		if k < 0 || dead[k] || got[k] || len(msg.Payload) != 1 {
			return false
		}
		reported[k] = msg.Payload[0]
		reportTrace[k] = msg.Trace
		if msg.Trace.Valid() {
			l.pol.Tracer.Event(msg.Trace, "coord.report", tracing.I64("iter", int64(iter)), tracing.Attr{})
		}
		got[k] = true
		return true
	}

	lastIter := 0
	for iter = 1; iter <= opts.MaxIterations; iter++ {
		l.newRound(iter)
		for k := range got {
			got[k] = false
		}
		if _, err := l.gather(KindReport, iter, liveCount(), coordRoundFactor, resendControl, takeReport); err != nil {
			return nil, fmt.Errorf("coordinator iter %d: %w", iter, err)
		}

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
			l.pol.Tracer.Event(tracing.Context{}, "coord.missed",
				tracing.I64("agent", int64(k)), tracing.I64("iter", int64(iter)))
			reportTrace[k] = tracing.Context{} // missed round: no trace to echo
			l.mb.skipTo(agents[k], KindReport, iter)
			if missed[k] >= l.pol.DeadAfter {
				dead[k] = true
				degr.DeadAgents = append(degr.DeadAgents, agents[k])
				l.pol.Tracer.Event(tracing.Context{}, "coord.dead",
					tracing.I64("iter", int64(iter)), tracing.I64("agent", int64(k)))
				l.pol.Flight.Dump("agent-dead")
			}
		}
		if missedThisRound > 0 {
			degraded = true
			degr.StaleRounds++
			l.pol.Tracer.Event(tracing.Context{}, "coord.round",
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
		mask := deadMaskPayload(degr.DeadAgents)
		for k, id := range agents {
			if dead[k] {
				continue
			}
			if err := l.send(id, Message{
				Kind: KindControl, Iter: iter, From: self, Stop: stop, Payload: mask,
				Trace: reportTrace[k],
			}); err != nil {
				return nil, fmt.Errorf("coordinator iter %d broadcast: %w", iter, err)
			}
		}
		if stop {
			lastIter = iter
			break
		}
	}
	// Distributed runs always start from the zero iterate.
	opts.Probe.ObserveSolve(stats.Iterations, stats.FinalResidual, stats.Converged, false)

	// Collect finals from the live agents. A blocked wait retransmits the
	// stop control — an agent stuck in its control phase has not seen it.
	lambda := make([][]float64, m)
	haveFinal := make([]bool, m+n)
	resendStop := func() error {
		for k, id := range agents {
			if !dead[k] && !haveFinal[k] {
				if err := l.resend(id, KindControl, lastIter); err != nil {
					return err
				}
			}
		}
		return nil
	}
	takeFinal := func(msg Message) bool {
		k := agentSlot(msg.From)
		if k < 0 || haveFinal[k] {
			return false
		}
		haveFinal[k] = true
		if len(msg.Payload) == n+1 {
			if i := int(msg.Payload[0]); i >= 0 && i < m && msg.From == tab.fe[i] {
				lambda[i] = append([]float64(nil), msg.Payload[1:]...)
			}
		}
		return true
	}
	if err := l.finals(lastIter, liveCount(), resendStop, takeFinal); err != nil {
		return nil, fmt.Errorf("coordinator finals: %w", err)
	}
	// Proximity fallback: a front-end that died (or went silent) before
	// delivering its final routing sends all demand to its nearest
	// datacenter — the degradation policy for crashed demand sources.
	for i := 0; i < m; i++ {
		if lambda[i] != nil {
			continue
		}
		if err := l.missingFinal(i); err != nil {
			return nil, err
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
