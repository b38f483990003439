package distsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
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
	// applies to the legacy fail-fast protocol; with Resilience set the
	// per-phase MessageDeadline governs waits instead.
	Timeout time.Duration
	// Resilience, when non-nil, enables the hardened protocol: bounded
	// retransmission with backoff, duplicate suppression, per-phase
	// degrade deadlines with stale-iterate fallback, and coordinator
	// liveness tracking with proximity-routing finalization for dead
	// front-ends. Nil runs the legacy fail-fast protocol.
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
	var pol Resilience
	resilient := opts.Resilience != nil
	if resilient {
		pol = opts.Resilience.withDefaults()
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
				var res *coordResult
				var err error
				if resilient {
					res, err = runCoordinatorRes(ctx, engine, transport, tab, pol)
				} else {
					res, err = runCoordinator(ctx, engine, transport, tab, opts.Timeout)
				}
				if err != nil {
					return err
				}
				resCh <- res
				return nil
			}})
		case parseID(id, "fe-", &i) && i >= 0 && i < m:
			idx := i
			launches = append(launches, launch{id: id, run: func() error {
				if resilient {
					return runFrontEndRes(ctx, engine, transport, tab, idx, pol)
				}
				return runFrontEnd(ctx, engine, transport, tab, idx, opts.Timeout)
			}})
		case parseID(id, "dc-", &j) && j >= 0 && j < n:
			idx := j
			launches = append(launches, launch{id: id, run: func() error {
				if resilient {
					return runDatacenterRes(ctx, engine, transport, tab, idx, pol)
				}
				return runDatacenter(ctx, engine, transport, tab, idx, opts.Timeout)
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

// mailbox wraps an inbox with a pending buffer so agents can receive
// messages of a specific kind and iteration even when the transport
// reorders deliveries across rounds. Waits also unblock when the run's
// context is cancelled.
type mailbox struct {
	inbox   <-chan Message
	pending []Message
	timeout time.Duration
	ctx     context.Context
}

func newMailbox(ctx context.Context, t Transport, id string, timeout time.Duration) (*mailbox, error) {
	in, err := t.Inbox(id)
	if err != nil {
		return nil, err
	}
	return &mailbox{inbox: in, timeout: timeout, ctx: ctx}, nil
}

// recv returns the next message matching kind and iter.
func (mb *mailbox) recv(kind Kind, iter int) (Message, error) {
	for idx, msg := range mb.pending {
		if msg.Kind == kind && msg.Iter == iter {
			mb.pending = append(mb.pending[:idx], mb.pending[idx+1:]...)
			return msg, nil
		}
	}
	deadline := time.NewTimer(mb.timeout)
	defer deadline.Stop()
	for {
		select {
		case msg, ok := <-mb.inbox:
			if !ok {
				return Message{}, ErrAborted
			}
			if msg.Kind == kind && msg.Iter == iter {
				return msg, nil
			}
			mb.pending = append(mb.pending, msg)
		case <-deadline.C:
			return Message{}, fmt.Errorf("kind %d iter %d: %w", kind, iter, ErrTimeout)
		case <-mb.ctx.Done():
			return Message{}, mb.ctx.Err()
		}
	}
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
// exchanges every pair in ascending order.
//
// The float expressions and their evaluation order are the engine's, and
// the compact vectors enumerate the same ascending mask indices as the
// engine's loops, so a distributed solve is bit-identical to the
// in-process one.
func runFrontEnd(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, i int, timeout time.Duration) error {
	inst := e.Instance()
	n := inst.Cloud.N()
	self := tab.fe[i]
	mb, err := newMailbox(ctx, tr, self, timeout)
	if err != nil {
		return err
	}
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
	ws := e.NewStepWorkspace()

	for iter := 1; ; iter++ {
		if err := e.LambdaStepCompactInto(ws, i, aC, varphiC, lambdaTildeC); err != nil {
			return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
		}
		for t, j := range cols {
			if err := tr.Send(tab.dc[j], Message{
				Kind: KindRouting, Iter: iter, From: self,
				Payload: []float64{lambdaTildeC[t], varphiC[t]},
			}); err != nil {
				return fmt.Errorf("front-end %d iter %d send: %w", i, iter, err)
			}
		}

		for recvd := 0; recvd < k; recvd++ {
			msg, err := mb.recv(KindAux, iter)
			if err != nil {
				return fmt.Errorf("front-end %d iter %d: %w", i, iter, err)
			}
			var j int
			if !parseID(msg.From, "dc-", &j) || len(msg.Payload) != 1 {
				return fmt.Errorf("front-end %d iter %d: bad aux message from %q", i, iter, msg.From)
			}
			t, ok := pos[j]
			if !ok {
				return fmt.Errorf("front-end %d iter %d: aux from infeasible datacenter %d", i, iter, j)
			}
			aTildeC[t] = msg.Payload[0]
		}

		// Dual prediction and Gaussian back substitution for this row.
		var residual float64
		for t := 0; t < k; t++ {
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

		if err := tr.Send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
		}); err != nil {
			return fmt.Errorf("front-end %d iter %d report: %w", i, iter, err)
		}
		ctl, err := mb.recv(KindControl, iter)
		if err != nil {
			return fmt.Errorf("front-end %d iter %d control: %w", i, iter, err)
		}
		if ctl.Stop {
			final := finalRouting(i, n, cols, lambdaC)
			return tr.Send(tab.coord, Message{
				Kind: KindFinal, Iter: iter, From: self, Payload: final,
			})
		}
	}
}

// maskSlots maps each global index of an engine mask row or column to
// its slot in the agent's compact vectors.
func maskSlots(idx []int32) map[int]int {
	pos := make(map[int]int, len(idx))
	for t, v := range idx {
		pos[int(v)] = t
	}
	return pos
}

// finalRouting is front-end i's final message payload: i, then its
// routing row scattered back to full length N. Off-mask entries are
// identically zero for the whole solve.
func finalRouting(i, n int, cols []int32, lambdaC []float64) []float64 {
	final := make([]float64, n+1)
	final[0] = float64(i)
	for t, j := range cols {
		final[1+int(j)] = lambdaC[t]
	}
	return final
}

// runDatacenter is the datacenter agent j: it performs the μ-, ν- and
// a-minimizations, sends ã back to the front-ends, applies the dual update
// and Gaussian back substitution for its column, and reports its residual
// contribution. Like runFrontEnd it works over compact vectors indexed by
// the mask column FeasibleRows(j). A datacenter outside every front-end's
// cutoff (an empty column) still runs: it computes its μ/ν/φ updates over
// an empty load column — matching the engine's iterate exactly — and
// keeps reporting to the coordinator.
func runDatacenter(ctx context.Context, e *core.Engine, tr Transport, tab *idTable, j int, timeout time.Duration) error {
	self := tab.dc[j]
	mb, err := newMailbox(ctx, tr, self, timeout)
	if err != nil {
		return err
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
	ws := e.NewStepWorkspace()
	var mu, nu, phi float64

	for iter := 1; ; iter++ {
		for recvd := 0; recvd < k; recvd++ {
			msg, err := mb.recv(KindRouting, iter)
			if err != nil {
				return fmt.Errorf("datacenter %d iter %d: %w", j, iter, err)
			}
			var i int
			if !parseID(msg.From, "fe-", &i) || len(msg.Payload) != 2 {
				return fmt.Errorf("datacenter %d iter %d: bad routing message from %q", j, iter, msg.From)
			}
			t, ok := pos[i]
			if !ok {
				return fmt.Errorf("datacenter %d iter %d: routing from infeasible front-end %d", j, iter, i)
			}
			lambdaTildeC[t] = msg.Payload[0]
			varphiC[t] = msg.Payload[1]
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
			if err := tr.Send(tab.fe[i], Message{
				Kind: KindAux, Iter: iter, From: self,
				Payload: []float64{aTildeC[t]},
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

		if err := tr.Send(tab.coord, Message{
			Kind: KindReport, Iter: iter, From: self, Payload: []float64{residual},
		}); err != nil {
			return fmt.Errorf("datacenter %d iter %d report: %w", j, iter, err)
		}
		ctl, err := mb.recv(KindControl, iter)
		if err != nil {
			return fmt.Errorf("datacenter %d iter %d control: %w", j, iter, err)
		}
		if ctl.Stop {
			return tr.Send(tab.coord, Message{
				Kind: KindFinal, Iter: iter, From: self,
				Payload: []float64{float64(j), mu, nu, phi},
			})
		}
	}
}

// runCoordinator gathers per-iteration residual reports, decides
// convergence, broadcasts control messages, and collects the final routing.
func runCoordinator(ctx context.Context, e *core.Engine, t Transport, tab *idTable, timeout time.Duration) (*coordResult, error) {
	inst := e.Instance()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	opts := e.Options()
	mb, err := newMailbox(ctx, t, tab.coord, timeout)
	if err != nil {
		return nil, err
	}
	stats := &core.Stats{}

	broadcast := func(iter int, stop bool) error {
		for i := 0; i < m; i++ {
			if err := t.Send(tab.fe[i], Message{Kind: KindControl, Iter: iter, From: tab.coord, Stop: stop}); err != nil {
				return err
			}
		}
		for j := 0; j < n; j++ {
			if err := t.Send(tab.dc[j], Message{Kind: KindControl, Iter: iter, From: tab.coord, Stop: stop}); err != nil {
				return err
			}
		}
		return nil
	}

	lastIter := 0
	for iter := 1; iter <= opts.MaxIterations; iter++ {
		var residual float64
		for k := 0; k < m+n; k++ {
			msg, err := mb.recv(KindReport, iter)
			if err != nil {
				return nil, fmt.Errorf("coordinator iter %d: %w", iter, err)
			}
			if r := msg.Payload[0]; r > residual {
				residual = r
			}
		}
		stats.Iterations = iter
		stats.FinalResidual = residual
		opts.Probe.ObserveIteration(residual)
		if opts.TrackResiduals {
			stats.ResidualTrace = append(stats.ResidualTrace, residual)
		}
		stop := residual <= opts.Tolerance || iter == opts.MaxIterations
		stats.Converged = residual <= opts.Tolerance
		if err := broadcast(iter, stop); err != nil {
			return nil, fmt.Errorf("coordinator iter %d broadcast: %w", iter, err)
		}
		if stop {
			lastIter = iter
			break
		}
	}
	// Distributed runs always start from the zero iterate.
	opts.Probe.ObserveSolve(stats.Iterations, stats.FinalResidual, stats.Converged, false)

	lambda := make([][]float64, m)
	for k := 0; k < m+n; k++ {
		msg, err := mb.recv(KindFinal, lastIter)
		if err != nil {
			return nil, fmt.Errorf("coordinator finals: %w", err)
		}
		if len(msg.Payload) != n+1 {
			continue
		}
		if i := int(msg.Payload[0]); i >= 0 && i < m && msg.From == tab.fe[i] {
			lambda[i] = append([]float64(nil), msg.Payload[1:]...)
		}
	}
	for i := 0; i < m; i++ {
		if lambda[i] == nil {
			return nil, fmt.Errorf("coordinator: missing final routing from front-end %d", i)
		}
	}
	return &coordResult{lambda: lambda, stats: stats}, nil
}
