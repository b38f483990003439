package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/carbon"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/qp"
	"repro/internal/telemetry"
	"repro/internal/utility"
)

// Solver errors.
var (
	ErrNotConverged = errors.New("core: ADM-G did not converge within the iteration budget")
	ErrBadOptions   = errors.New("core: invalid solver options")
	ErrBadState     = errors.New("core: state dimensions do not match the instance")
)

// Options configures the distributed 4-block ADM-G solver.
type Options struct {
	// Strategy selects Hybrid (default), GridOnly or FuelCellOnly.
	Strategy Strategy
	// Rho is the augmented-Lagrangian penalty ρ (paper default 0.3).
	Rho float64
	// Epsilon is the Gaussian back-substitution step ε ∈ (0.5, 1]
	// (default 1).
	Epsilon float64
	// MaxIterations bounds the ADM-G loop (default 2000).
	MaxIterations int
	// Tolerance is the relative convergence tolerance on the routing
	// coupling and dual stationarity (default 2.5e-4: at the paper's
	// scenario scale this is on the order of one misrouted server).
	Tolerance float64
	// DisableCorrection skips the Gaussian back-substitution step,
	// degrading ADM-G to a plain (convergence-unguaranteed) 4-block
	// ADMM — the ablation discussed in §III-A.
	DisableCorrection bool
	// TrackResiduals records the residual after every iteration in
	// Stats.ResidualTrace.
	TrackResiduals bool
	// SparsityCutoff, when positive, restricts routing to (front-end,
	// datacenter) pairs whose propagation latency is at most this many
	// seconds: off-cutoff pairs have λ_ij = a_ij = φ_ij ≡ 0 for the whole
	// solve and every M×N loop — steps, dual updates, residuals — walks
	// only the feasible pairs, so per-iteration work scales with the mask
	// size instead of M·N. Every front-end keeps at least its nearest
	// datacenter, so the per-row demand constraint stays feasible. Zero
	// (the default) is the dense paper solver: the mask admits every
	// pair. Sparse solves require the Quadratic or Linear utility (the
	// exact λ-QP path).
	SparsityCutoff float64
	// Workers fans the per-front-end λ-steps and per-datacenter
	// μ/ν/a-steps of each Iterate across this many goroutines (0 or 1 =
	// serial). Every work item writes to a fixed index and no reduction
	// is reordered, so parallel iterates are bit-identical to serial
	// ones. Engines iterated with Workers > 1 must be released with
	// Close; Solve and SolveFrom do this automatically.
	Workers int
	// Probe, when non-nil, receives the solver's telemetry: per-block
	// phase timings from Iterate and per-iteration residuals plus solve
	// outcomes from SolveState. Recording is allocation-free, never feeds
	// back into the numerics, and a nil probe costs one predictable
	// branch per record point. One probe may aggregate many engines.
	Probe *telemetry.SolverProbe
}

func (o Options) withDefaults() Options {
	if o.Strategy == 0 {
		o.Strategy = Hybrid
	}
	if o.Rho == 0 {
		o.Rho = 0.3
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 2000
	}
	if o.Tolerance == 0 {
		o.Tolerance = DefaultTolerance
	}
	return o
}

// DefaultTolerance is the relative routing-residual tolerance used when
// Options.Tolerance is zero. It matches the paper's scenario scale:
// arrivals per front-end are in the thousands, so 2.5e-4 of the peak is
// on the order of one misrouted server.
const DefaultTolerance = 2.5e-4

// OneServerTolerance returns the relative tolerance at which the
// instance's residual corresponds to roughly one server of misrouted
// load. Residuals are measured relative to the peak per-front-end
// arrival rate, so at a fixed fleet capacity the default tolerance
// demands ~M× more absolute precision as front-ends multiply — far past
// the point where tighter routing changes any provisioning decision.
// Large-topology sweeps and the rolling-horizon control plane solve at
// this tolerance instead; it never loosens below the default.
func OneServerTolerance(inst *Instance) float64 {
	var peak float64
	for _, a := range inst.Arrivals {
		if a > peak {
			peak = a
		}
	}
	if peak*DefaultTolerance >= 1 {
		// One server is already within the default's absolute precision.
		return DefaultTolerance
	}
	return 1 / peak
}

func (o Options) validate() error {
	if o.Rho < 0 {
		return fmt.Errorf("rho %g: %w", o.Rho, ErrBadOptions)
	}
	if o.Epsilon <= 0.5 || o.Epsilon > 1 {
		return fmt.Errorf("epsilon %g outside (0.5, 1]: %w", o.Epsilon, ErrBadOptions)
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("tolerance %g: %w", o.Tolerance, ErrBadOptions)
	}
	if o.MaxIterations < 0 {
		return fmt.Errorf("max iterations %d: %w", o.MaxIterations, ErrBadOptions)
	}
	if o.Workers < 0 {
		return fmt.Errorf("workers %d: %w", o.Workers, ErrBadOptions)
	}
	if o.SparsityCutoff < 0 {
		return fmt.Errorf("sparsity cutoff %g: %w", o.SparsityCutoff, ErrBadOptions)
	}
	switch o.Strategy {
	case Hybrid, GridOnly, FuelCellOnly:
	default:
		return fmt.Errorf("unknown strategy %d: %w", int(o.Strategy), ErrBadOptions)
	}
	return nil
}

// Stats reports solver behaviour for one slot.
type Stats struct {
	Iterations    int
	Converged     bool
	FinalResidual float64 // combined relative primal residual
	// WarmStarted reports whether the solve was seeded from a nonzero
	// iterate. Rolling-horizon callers use it to attribute iteration
	// counts to warm vs cold starts without attaching a probe.
	WarmStarted bool
	// ResidualTrace holds the residual after each iteration when
	// Options.TrackResiduals is set. It is a fresh copy per solve — safe
	// to retain across warm-started SolveState/SolveFrom calls on the
	// same engine.
	ResidualTrace []float64
}

// State is the full iterate of the distributed algorithm. Power variables
// (Mu, Nu and the dual Phi) are kept in the engine's per-datacenter
// "server-equivalent" scaling — power divided by β_j — so that all four
// ADMM blocks share the workload scale (see Engine). It is exported so the
// message-passing runtime (internal/distsim) can carry the same state
// through real message exchanges and produce bit-identical iterates.
type State struct {
	Lambda [][]float64 // λ_ij, M×N
	A      [][]float64 // a_ij, M×N (auxiliary routing copies)
	Mu     []float64   // μ_j/β_j, N (server-equivalents)
	Nu     []float64   // ν_j/β_j, N (server-equivalents)
	Phi    []float64   // φ_j, N (power-balance duals, $/server-equivalent)
	Varphi [][]float64 // φ_ij, M×N (a=λ duals)
}

// NewState returns the zero-initialized iterate (the paper initializes all
// variables to 0). All six blocks share one contiguous backing slab —
// (3M+3)·N floats — so building a state costs a constant number of
// allocations however large the topology, and row sweeps walk memory
// sequentially. Rows are full-capacity views: an append on one can never
// bleed into the next.
func NewState(m, n int) *State {
	slab := make([]float64, (3*m+3)*n)
	s := &State{}
	s.Lambda, slab = carveRows(slab, m, n)
	s.A, slab = carveRows(slab, m, n)
	s.Varphi, slab = carveRows(slab, m, n)
	s.Mu, slab = slab[:n:n], slab[n:]
	s.Nu, slab = slab[:n:n], slab[n:]
	s.Phi = slab[:n:n]
	return s
}

// Zero resets the iterate to the cold-start state in place, reusing the
// backing slab. Rolling-horizon callers use it to run cold-baseline
// solves on the same State they otherwise warm-start.
func (s *State) Zero() {
	for i := range s.Lambda {
		row := s.Lambda[i]
		for j := range row {
			row[j] = 0
		}
		row = s.A[i]
		for j := range row {
			row[j] = 0
		}
		row = s.Varphi[i]
		for j := range row {
			row[j] = 0
		}
	}
	for j := range s.Mu {
		s.Mu[j], s.Nu[j], s.Phi[j] = 0, 0, 0
	}
}

// Engine carries the per-agent sub-problem solvers of §III-C. Its step
// methods are pure with respect to the engine (safe for concurrent use by
// different agents) and are shared between the in-process sequential loop
// and the message-passing runtime.
//
// Scaling: the paper's single penalty ρ implicitly assumes the routing
// variables (servers) and power variables (watts) live on comparable
// scales. We make that explicit by measuring each datacenter's power in
// "server-equivalents" — power divided by β_j = (P_peak − P_idle)·PUE_j —
// which turns the power-balance constraint (15) into
//
//	α_j/β_j + Σ_i a_ij − μ'_j − ν'_j = 0
//
// with every term on the workload scale. Prices are scaled the other way
// (p' = p·β_j), leaving the objective value unchanged. This is a pure
// change of units; the algorithm is otherwise §III-C verbatim.
type Engine struct {
	inst *Instance
	opts Options
	m, n int

	alphaEq []float64   // α_j/β_j (server-equivalents)
	beta    []float64   // β_j, MW per workload unit (for unit conversion)
	capEq   []float64   // effective μ_j^max/β_j per strategy
	p0Eq    []float64   // p0·β_j, $ per server-equivalent-hour
	pEq     []float64   // p_j·β_j
	cEq     []float64   // C_j·β_j, tons per server-equivalent-hour
	lat     [][]float64 // cached latency rows (Cloud.LatencyRow allocates)

	// sp is the routing-feasibility mask (see sparsity.go) that every
	// M×N loop walks; the full mask when Options.SparsityCutoff is zero.
	// spCloud remembers which cloud a cutoff mask was built from so Reset
	// with the same topology object skips the rebuild.
	sp      *sparsity
	spCloud *model.Cloud

	// rho is the effective penalty: Options.Rho times the instance's
	// marginal-cost scale, so the paper's ρ = 0.3 sits in the regime
	// where the augmented-Lagrangian curvature matches the objective's
	// gradients regardless of the instance's units.
	rho float64
	// dualScale normalizes dual-change residuals in the convergence test:
	// the larger of the marginal-cost scale and ρ·loadScale. A dual step
	// is ρ times a constraint violation, so measuring dual changes against
	// ρ·loadScale asks the same question as the coupling term — "is the
	// violation driving the duals below tolerance×loadScale?" — which
	// keeps the two criteria commensurate when the auto-scaled ρ is large
	// (small per-front-end arrivals). At the paper's scale ρ·loadScale is
	// far below the cost scale and the historical behavior is unchanged.
	dualScale float64

	// Reusable per-iteration buffers (see workspace.go). Iterate and
	// SolveState use these and are therefore NOT safe for concurrent use
	// on the same engine; the exported step methods remain pure.
	scratch iterScratch
	ws      []*StepWorkspace
	pool    *workerPool // spawned lazily on the first parallel Iterate
	// iterState points at the state currently being iterated so the
	// fan-out phases (methods, not closures) can reach it without
	// per-call allocations.
	iterState *State
}

// NewEngine validates the instance and options and prepares an engine.
func NewEngine(inst *Instance, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	e := &Engine{
		opts:    opts,
		m:       m,
		n:       n,
		alphaEq: make([]float64, n),
		beta:    make([]float64, n),
		capEq:   make([]float64, n),
		p0Eq:    make([]float64, n),
		pEq:     make([]float64, n),
		cEq:     make([]float64, n),
		lat:     matrixRows(m, n),
	}
	e.scratch.init(m, n)
	e.resetMask()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	e.ws = make([]*StepWorkspace, workers)
	for w := range e.ws {
		e.ws[w] = e.newStepWorkspace()
	}
	if err := e.configure(inst); err != nil {
		return nil, err
	}
	return e, nil
}

// configure derives all per-datacenter scaled parameters, the latency
// cache and the effective penalty from inst. It is shared by NewEngine and
// Reset; inst must already be validated and dimension-compatible.
func (e *Engine) configure(inst *Instance) error {
	m, n := e.m, e.n
	e.inst = inst
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			e.lat[i][j] = inst.Cloud.LatencySec(i, j)
		}
	}
	if cut := e.opts.SparsityCutoff; cut > 0 {
		switch inst.Utility.(type) {
		case utility.Quadratic, utility.Linear:
		default:
			return fmt.Errorf("core: SparsityCutoff %g needs the Quadratic or Linear utility (exact masked λ-step), got %T: %w",
				cut, inst.Utility, ErrBadOptions)
		}
		if e.spCloud != inst.Cloud {
			e.sp = buildSparsity(e.lat, cut)
			e.spCloud = inst.Cloud
		}
	}
	opts := e.opts
	for j := 0; j < n; j++ {
		dc := inst.Cloud.Datacenters[j]
		beta := inst.BetaMW(j)
		if beta <= 0 {
			return fmt.Errorf("core: datacenter %d has zero dynamic power range", j)
		}
		e.beta[j] = beta
		e.alphaEq[j] = inst.AlphaMW(j) / beta
		e.p0Eq[j] = inst.FuelCellPriceUSD * beta
		e.pEq[j] = inst.PriceUSD[j] * beta
		e.cEq[j] = inst.CarbonRate[j] * beta
		switch opts.Strategy {
		case GridOnly:
			e.capEq[j] = 0
		default:
			e.capEq[j] = dc.FuelCellMaxMW / beta
		}
	}
	if opts.Strategy == FuelCellOnly {
		// ν ≡ 0 requires fuel cells to cover worst-case demand.
		for j := 0; j < n; j++ {
			if peak := inst.PeakDemandMW(j); e.capEq[j]*e.beta[j] < peak-1e-9 {
				return fmt.Errorf("datacenter %d: capacity %g MW < peak demand %g MW: %w",
					j, e.capEq[j]*e.beta[j], peak, ErrFuelCellDeficit)
			}
		}
	}
	// Effective penalty: Options.Rho times an estimate of the objective's
	// curvature/gradient scale in the (scaled) variable space, so that the
	// paper's ρ = 0.3 lands in the fast-convergence regime whatever units
	// the instance uses. The estimate combines the latency-utility
	// curvature (≈ 2w·L̄²·N/Ā per variable) with the marginal-cost
	// gradient scale divided by the load scale.
	var costScale float64
	for j := 0; j < n; j++ {
		costScale += e.p0Eq[j] + e.pEq[j] + e.cEq[j]*inst.EmissionCost[j].Marginal(0)
	}
	costScale /= float64(2 * n)
	meanA, cnt := 0.0, 0
	for _, a := range inst.Arrivals {
		if a > 0 {
			meanA += a
			cnt++
		}
	}
	if cnt > 0 {
		meanA /= float64(cnt)
	} else {
		meanA = 1
	}
	var meanLat2 float64
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			l := e.lat[i][j]
			meanLat2 += l * l
		}
	}
	meanLat2 /= float64(m * n)
	curvature := 2 * inst.WeightW * meanLat2 * float64(n) / meanA
	// The extra 400/meanA factor was fit empirically: across two orders
	// of magnitude of fleet size the iteration-count-minimizing penalty
	// tracks curvature/meanA, i.e. ρ* ∝ w·L̄²·N/Ā² (see the ablation
	// bench BenchmarkAblationRho).
	scale := math.Max(curvature, costScale/meanA) * 400 / meanA
	if scale < 1e-15 {
		scale = 1e-15
	}
	e.rho = opts.Rho * scale
	var peakArrival float64
	for _, a := range inst.Arrivals {
		if a > peakArrival {
			peakArrival = a
		}
	}
	e.dualScale = math.Max(math.Max(costScale, e.rho*peakArrival), 1e-12)
	return nil
}

// Reset swaps in a new slot's instance — prices, arrivals, carbon rates,
// or even a different topology. With unchanged (M, N) dimensions no
// scratch is reallocated, and the caller's iterate (if any) is untouched —
// exactly what warm-starting the next hourly slot wants. When the
// dimensions change, every engine buffer (scaled parameters, latency
// cache, iteration scratch, step workspaces, sparsity mask) is rebuilt at
// the new shape — never aliased to the old one — and any worker pool is
// stopped first, because its goroutines hold references to the old
// workspaces (it respawns lazily on the next parallel Iterate). States
// from the old shape do not fit the resized engine; start from NewState.
func (e *Engine) Reset(inst *Instance) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	if m, n := inst.Cloud.M(), inst.Cloud.N(); m != e.m || n != e.n {
		e.resize(m, n)
	}
	return e.configure(inst)
}

// resize rebuilds every dimension-dependent buffer at the new shape.
func (e *Engine) resize(m, n int) {
	e.Close() // worker goroutines captured the old e.ws pointers
	e.m, e.n = m, n
	e.alphaEq = make([]float64, n)
	e.beta = make([]float64, n)
	e.capEq = make([]float64, n)
	e.p0Eq = make([]float64, n)
	e.pEq = make([]float64, n)
	e.cEq = make([]float64, n)
	e.lat = matrixRows(m, n)
	e.resetMask()
	e.scratch = iterScratch{}
	e.scratch.init(m, n)
	for w := range e.ws {
		e.ws[w] = e.newStepWorkspace()
	}
}

// Instance returns the engine's problem instance.
func (e *Engine) Instance() *Instance { return e.inst }

// Options returns the effective (defaulted) options.
func (e *Engine) Options() Options { return e.opts }

// LambdaStepCompactInto solves the per-front-end λ-minimization (17)
// over front-end i's feasible columns:
//
//	min −wU(λ_i) + Σ_j (φ_ij λ_ij + ρ/2 (λ_ij² − 2 a_ij λ_ij))
//	s.t. Σ_j λ_ij = A_i, λ_ij ≥ 0,
//
// with λ_ij pinned at 0 off the routing mask. aC, varphiC and dst are
// compact vectors indexed by FeasibleCols(i) (on a dense engine that is
// every column, so compact == full). The result is written into dst and
// ws provides all scratch; concurrent callers must use distinct
// workspaces. Distributed front-end agents call it directly; Iterate
// gathers each row into compact vectors and scatters the result back.
//
// For the Quadratic and Linear utilities the sub-problem is
//
//	min ½ρ‖λ‖² + ½s(Lᵀλ)² + cᵀλ  over {λ ≥ 0, Σλ = A_i}
//
// (s = 2w/A_i, s = 0 respectively), an identity-plus-rank-one QP solved
// exactly and without allocating by solveLambdaQP; other utilities fall
// back to the generic projected-gradient path, which allocates.
//
//ufc:hotpath
func (e *Engine) LambdaStepCompactInto(ws *StepWorkspace, i int, aC, varphiC, dst []float64) error {
	idx := e.sp.rows[i]
	k := len(idx)
	if len(aC) != k || len(varphiC) != k || len(dst) != k {
		return ErrBadState
	}
	arrivals := e.inst.Arrivals[i]
	if arrivals <= 0 {
		for t := range dst {
			dst[t] = 0
		}
		return nil
	}
	rho := e.rho
	full := e.lat[i]
	lat := ws.ln[:k]
	for t, j := range idx {
		lat[t] = full[j]
	}
	cvec := ws.cn[:k]
	switch u := e.inst.Utility.(type) {
	case utility.Quadratic:
		// −wU = (w/A_i)(Σλ_ij L_ij)² → curvature s = 2w/A_i along L.
		for t := 0; t < k; t++ {
			cvec[t] = varphiC[t] - rho*aC[t]
		}
		solveLambdaQP(ws, cvec, lat, rho, 2*e.inst.WeightW/arrivals, arrivals, dst)
	case utility.Linear:
		// −wU = w Σλ_ij L_ij → linear term only.
		w := e.inst.WeightW
		for t := 0; t < k; t++ {
			cvec[t] = w*lat[t] + varphiC[t] - rho*aC[t]
		}
		solveLambdaQP(ws, cvec, lat, rho, 0, arrivals, dst)
	default:
		x, err := e.lambdaProjGrad(u, lat, arrivals, aC, varphiC)
		if err != nil {
			return err
		}
		copy(dst, x)
	}
	return nil
}

// solveLambdaQP solves min ½ρ‖λ‖² + ½s(lᵀλ)² + cᵀλ over the scaled simplex
// {λ ≥ 0, Σλ = total} exactly, writing the optimum into dst.
//
// For a fixed t = lᵀλ the problem reduces to a Euclidean projection:
// λ*(t) = Proj_simplex(−(c + s·t·l)/ρ, total), and a fixed point of
// t ↦ lᵀλ*(t) satisfies the KKT conditions of the full (strictly convex)
// QP. g(t) = lᵀλ*(t) − t is piecewise linear and strictly decreasing, with
// a breakpoint wherever a coordinate enters or leaves the support. On the
// support S of one projection λ_j = v_j − θ with θ = (Σ_S v − total)/|S|,
// so lᵀλ*(t) is affine in t there and one Newton step lands on the root of
// that piece (pieceRoot). The root depends on S alone: a step that returns
// to the same t, bit for bit, has found the fixed point. The bracket
// [total·min(l), total·max(l)], narrowed by the sign of g at every probe,
// holds every step (newtonLambda). Starting from the piece with the full
// support, the solve ends after one or two projections on most rows; a
// last pass restores Σλ = total to rounding (restoreMass).
//
//ufc:hotpath
func solveLambdaQP(ws *StepWorkspace, c, l []float64, rho, s, total float64, dst []float64) {
	if s == 0 {
		lambdaAt(ws, c, l, rho, 0, 0, total, dst)
		return
	}
	lmin, lmax := l[0], l[0]
	for _, v := range l[1:] {
		if v < lmin {
			lmin = v
		}
		if v > lmax {
			lmax = v
		}
	}
	if lo, hi := total*lmin, total*lmax; hi > lo {
		newtonLambda(ws, c, l, rho, s, total, lo, hi, dst)
	} else {
		// All latencies equal: t is forced, one projection suffices.
		lambdaAt(ws, c, l, rho, s, lo, total, dst)
	}
	restoreMass(dst, total)
}

// newtonLambda runs the safeguarded Newton iteration of solveLambdaQP on
// the bracket [lo, hi], leaving the projection at the last probe in dst.
//
//ufc:hotpath
func newtonLambda(ws *StepWorkspace, c, l []float64, rho, s, total, lo, hi float64, dst []float64) {
	// g(lo) ≥ 0 and g(hi) ≤ 0 hold by construction (lᵀλ ∈ [lo, hi] for
	// every feasible λ), so the root lies in [lo, hi], on an end when the
	// optimum puts all mass on a lowest- or highest-latency column. Every
	// step is clamped into the bracket; an end already probed is not the
	// root, so a step onto it bisects instead. The first step is the root
	// of the piece with every coordinate in the support.
	t := min(max(pieceRoot(c, l, nil, rho, s, total), lo), hi)
	var probedLo, probedHi bool
	for iter := 0; iter < maxLambdaProbes; iter++ {
		lt := lambdaAt(ws, c, l, rho, s, t, total, dst)
		switch {
		case lt > t:
			lo, probedLo = t, true
		case lt < t:
			hi, probedHi = t, true
		default:
			return
		}
		next := min(max(pieceRoot(c, l, dst, rho, s, total), lo), hi)
		if next == t {
			// The piece's root is t itself: the support repeated, or t is
			// an end and the root lies past it only by rounding.
			return
		}
		if (next == lo && probedLo) || (next == hi && probedHi) {
			next = lo + (hi-lo)/2
			if next <= lo || next >= hi {
				return // the bracket has collapsed onto t
			}
		}
		t = next
	}
}

// restoreMass moves the rounding deficit total − Σλ onto the largest
// coordinate. The projection computes λ_j = v_j − θ, and when s·t·l/ρ is
// large the v_j dwarf λ, so Σλ can miss total by far more than an ulp of
// total. The largest coordinate is at least total/len(λ), far above any
// rounding deficit, so λ stays ≥ 0.
//
//ufc:hotpath
func restoreMass(lambda []float64, total float64) {
	var sum float64
	big := 0
	for j, x := range lambda {
		sum += x
		if x > lambda[big] {
			big = j
		}
	}
	lambda[big] += total - sum
}

// maxLambdaProbes bounds solveLambdaQP's projections against a
// pathological walk over pieces; rows settle in one to three. When it is
// hit, dst holds the projection at the last probe, a feasible point
// inside the final bracket.
const maxLambdaProbes = 128

// lambdaAt writes λ*(t) = Proj_simplex(−(c + s·t·l)/ρ, total) into dst
// and returns lᵀλ*(t).
//
//ufc:hotpath
func lambdaAt(ws *StepWorkspace, c, l []float64, rho, s, t, total float64, dst []float64) float64 {
	// Slice to the problem size: c/l/dst are compact prefixes of length
	// |FeasibleCols(i)| ≤ N.
	n := len(c)
	v := ws.vn[:n]
	for j := 0; j < n; j++ {
		v[j] = -(c[j] + s*t*l[j]) / rho
	}
	qp.ProjectSimplexInto(dst, ws.pn, v, total)
	var lt float64
	for j := 0; j < n; j++ {
		lt += l[j] * dst[j]
	}
	return lt
}

// pieceRoot returns the root of g(t) = lᵀλ*(t) − t on the linear piece
// whose support is S = {j : λ_j > 0}, or every coordinate when lambda is
// nil. Solving the KKT equations ρλ_j + s·t·l_j + c_j = ν on S together
// with Σ_S λ = total and lᵀλ = t gives, in centred form with l̄ the mean
// of l over S,
//
//	t_S = (ρ·total·l̄ − Σ_S (l_j − l̄)·c_j) / (ρ + s·Σ_S (l_j − l̄)²).
//
//ufc:hotpath
func pieceRoot(c, l, lambda []float64, rho, s, total float64) float64 {
	var sum float64
	k := 0
	for j := range l {
		if lambda == nil || lambda[j] > 0 {
			sum += l[j]
			k++
		}
	}
	mean := sum / float64(k)
	var lc, ll float64
	for j := range l {
		if lambda == nil || lambda[j] > 0 {
			d := l[j] - mean
			lc += d * c[j]
			ll += d * d
		}
	}
	return (rho*total*mean - lc) / (rho + s*ll)
}

// lambdaProjGrad is the generic λ-step for non-quadratic utilities:
// projected gradient with backtracking on the ρ-strongly-convex
// sub-problem.
func (e *Engine) lambdaProjGrad(u utility.Func, lat []float64, arrivals float64, aRow, varphiRow []float64) ([]float64, error) {
	n := len(lat)
	rho, w := e.rho, e.inst.WeightW
	obj := func(x linalg.Vector) float64 {
		v := -w * u.Value(x, lat, arrivals)
		for j := 0; j < n; j++ {
			v += varphiRow[j]*x[j] + rho/2*(x[j]*x[j]-2*aRow[j]*x[j])
		}
		return v
	}
	grad := func(x linalg.Vector) linalg.Vector {
		g := linalg.VectorOf(u.Gradient(x, lat, arrivals)...)
		g.Scale(-w)
		for j := 0; j < n; j++ {
			g[j] += varphiRow[j] + rho*(x[j]-aRow[j])
		}
		return g
	}
	x := qp.ProjectSimplex(linalg.VectorOf(aRow...), arrivals)
	step := 1 / (rho + 1)
	fx := obj(x)
	for iter := 0; iter < 2000; iter++ {
		g := grad(x)
		var next linalg.Vector
		for bt := 0; bt < 60; bt++ {
			y := x.Clone()
			y.AddScaled(-step, g)
			next = qp.ProjectSimplex(y, arrivals)
			fn := obj(next)
			d := next.Sub(x)
			if fn <= fx+g.Dot(d)+d.Dot(d)/(2*step)+1e-15 {
				fx = fn
				break
			}
			step /= 2
		}
		if next.Sub(x).NormInf() <= 1e-10*(1+arrivals) {
			x = next
			break
		}
		x = next
		step *= 1.3 // gentle step recovery
	}
	return x, nil
}

// MuStep solves the per-datacenter μ-minimization (18) in closed form:
//
//	μ̃_j = clamp(α_j + Σ_i a_ij − ν_j − (φ_j + p0)/ρ, 0, μ_j^max)
//
// in server-equivalent units.
//
//ufc:hotpath
func (e *Engine) MuStep(j int, sumA, nu, phi float64) float64 {
	target := e.alphaEq[j] + sumA - nu - (phi+e.p0Eq[j])/e.rho
	return qp.Clamp(target, 0, e.capEq[j])
}

// NuStep solves the per-datacenter ν-minimization (19):
//
//	min V_j(C_j ν) + (p_j + φ_j) ν + ρ/2 (k − ν)²,  ν ≥ 0,
//
// where k = α_j + Σ_i a_ij − μ̃_j in server-equivalent units. Linear carbon
// taxes admit a closed form; general convex V_j are handled by derivative
// bisection.
func (e *Engine) NuStep(j int, sumA, muTilde, phi float64) float64 {
	if e.opts.Strategy == FuelCellOnly {
		return 0
	}
	rho := e.rho
	k := e.alphaEq[j] + sumA - muTilde
	if tax, ok := e.inst.EmissionCost[j].(carbon.LinearTax); ok {
		return math.Max(0, k-(tax.Rate*e.cEq[j]+e.pEq[j]+phi)/rho)
	}
	v := e.inst.EmissionCost[j]
	c := e.cEq[j]
	deriv := func(nu float64) float64 {
		return c*v.Marginal(c*nu) + e.pEq[j] + phi + rho*(nu-k)
	}
	return qp.MinimizeConvex1D(deriv, 0, math.Inf(1), 1e-10)
}

// AStepCompactInto solves the per-datacenter a-minimization (20) (in the
// scaled units β_j = 1) over datacenter j's feasible rows:
//
//	min −Σ_i a_ij (φ_j + φ_ij) + ρ/2 (Σ_i a_ij)²
//	    + ρ Σ_i a_ij (0.5 a_ij − λ̃_ij + α_j − μ̃_j − ν̃_j)
//	s.t. Σ_i a_ij ≤ S_j, a_ij ≥ 0,
//
// with a_ij pinned at 0 off the routing mask. lambdaTildeC, varphiC and
// dst are compact vectors indexed by FeasibleRows(j) (every row on a
// dense engine); a datacenter no front-end may route to has an empty
// column and nothing to solve. The result is written into dst and ws
// provides all scratch; concurrent callers must use distinct workspaces.
//
// The Hessian ρ(I + 11ᵀ) with a single sum constraint and nonnegativity
// admits an exact O(M log M) water-filling solution
// (qp.SolveSumCappedRankOne), so this step stays cheap even with many
// front-ends (the paper's "transformed into a second order cone program
// and solved efficiently" remark).
//
//ufc:hotpath
func (e *Engine) AStepCompactInto(ws *StepWorkspace, j int, lambdaTildeC, varphiC []float64, muTilde, nuTilde, phi float64, dst []float64) error {
	k := len(e.sp.cols[j])
	if len(lambdaTildeC) != k || len(varphiC) != k || len(dst) != k {
		return ErrBadState
	}
	if k == 0 {
		return nil
	}
	rho := e.rho
	off := e.alphaEq[j] - muTilde - nuTilde
	cvec := ws.cm[:k]
	for t := 0; t < k; t++ {
		cvec[t] = -(phi + varphiC[t]) + rho*(-lambdaTildeC[t]+off)
	}
	if err := qp.SolveSumCappedRankOneInto(dst, ws.sortm[:k], ws.prefm[:k+1], rho, 1, cvec, e.inst.Cloud.Datacenters[j].Servers); err != nil {
		return fmt.Errorf("a-minimization at datacenter %d: %w", j, err)
	}
	return nil
}

// PowerBalance returns α_j + Σ_i a_ij − μ − ν in server-equivalent units,
// the residual of the power balance constraint (15).
//
//ufc:hotpath
func (e *Engine) PowerBalance(j int, sumA, mu, nu float64) float64 {
	return e.alphaEq[j] + sumA - mu - nu
}

// Iterate performs one full ADM-G iteration (prediction §III-C step 1 plus
// Gaussian back substitution step 2) on the state in place. All
// temporaries live in engine-owned scratch, so the steady-state loop is
// allocation-free; consequently Iterate is NOT safe for concurrent use on
// the same engine (the exported step methods remain pure). With
// Options.Workers > 1 the per-front-end and per-datacenter minimizations
// fan out across a persistent goroutine pool; every work item writes to a
// fixed index, so the iterates are bit-identical to the serial ones.
//
//ufc:hotpath
func (e *Engine) Iterate(s *State) error {
	m, n := e.m, e.n
	rho, eps := e.rho, e.opts.Epsilon
	if e.opts.DisableCorrection {
		eps = 1
	}
	sc := &e.scratch
	e.iterState = s
	probe := e.opts.Probe
	// Phase spans: the clock is read inside the probe (never here), so a
	// nil probe keeps the loop clock-free and deterministic.
	span := probe.StartSpan()

	// Σ_i a_ij of the incoming state, needed by the μ/ν-steps (s.A is
	// only mutated after the prediction phases).
	for j := 0; j < n; j++ {
		var sum float64
		for _, i := range e.sp.cols[j] {
			sum += s.A[i][j]
		}
		sc.sumA[j] = sum
	}

	// --- 1.1 λ-minimization (per front-end). ---
	if err := e.runPhase(phaseLambda, m); err != nil {
		e.iterState = nil
		return err
	}
	span = probe.PhaseDone(telemetry.SolverPhaseLambda, span)
	// --- 1.2–1.4 μ-, ν- and a-minimization (per datacenter). ---
	if err := e.runPhase(phaseDatacenter, n); err != nil {
		e.iterState = nil
		return err
	}
	span = probe.PhaseDone(telemetry.SolverPhaseDatacenter, span)
	e.iterState = nil

	// --- 1.5 dual updates fused with step 2's Gaussian back substitution
	// (backward order). Each φ_j / φ_ij prediction depends only on its own
	// pre-update value, so predicting and correcting in one pass produces
	// the same floats as the two-pass formulation.
	e.correction(s, rho, eps)
	probe.PhaseDone(telemetry.SolverPhaseCorrection, span)
	return nil
}

// correction is Iterate's fused dual-update + Gaussian back-substitution
// pass — the paper's loops, walking only the routing mask. Off-mask
// entries of λ, a, φ_ij and the scratch predictions are all zero and stay
// zero: every skipped update is a no-op on a zero entry (0 + ε·0), and the
// Σ_i reductions lose only zero terms, so the pass computes the same
// per-column totals as a sweep over all M×N pairs would.
//
//ufc:hotpath
func (e *Engine) correction(s *State, rho, eps float64) {
	n, sp := e.n, e.sp
	sc := &e.scratch
	lambdaTilde, aTildeT := sc.lambdaTilde, sc.aTildeT
	muTilde, nuTilde := sc.muTilde, sc.nuTilde
	for j := 0; j < n; j++ {
		var sumATilde float64
		row := aTildeT[j]
		for _, i := range sp.cols[j] {
			sumATilde += row[i]
		}
		phiTilde := s.Phi[j] - rho*e.PowerBalance(j, sumATilde, muTilde[j], nuTilde[j])
		s.Phi[j] += eps * (phiTilde - s.Phi[j])
	}
	for i, idx := range sp.rows {
		vrow, lrow := s.Varphi[i], lambdaTilde[i]
		for _, j := range idx {
			varphiTilde := vrow[j] - rho*(aTildeT[j][i]-lrow[j])
			vrow[j] += eps * (varphiTilde - vrow[j])
		}
	}
	for j := 0; j < n; j++ {
		var d float64 // Σ_i (a^{k+1} − a^k), scaled β = 1
		row := aTildeT[j]
		for _, i := range sp.cols[j] {
			old := s.A[i][j]
			next := old + eps*(row[i]-old)
			d += next - old
			s.A[i][j] = next
		}
		nuOld := s.Nu[j]
		var nuNext float64
		if e.opts.DisableCorrection {
			nuNext = nuTilde[j]
			s.Mu[j] = muTilde[j]
		} else {
			nuNext = nuOld + eps*(nuTilde[j]-nuOld) + d
			muOld := s.Mu[j]
			s.Mu[j] = muOld + eps*(muTilde[j]-muOld) - (nuNext - nuOld) + d
		}
		s.Nu[j] = nuNext
	}
	for i, idx := range sp.rows {
		lrow, trow := s.Lambda[i], lambdaTilde[i]
		for _, j := range idx {
			lrow[j] = trow[j]
		}
	}
}

// lambdaItem is the λ-phase work item: front-end i's prediction into the
// scratch row, gathered into and scattered back from compact vectors.
// Off-mask entries of the scratch row were zeroed at init and are never
// written.
//
//ufc:hotpath
func (e *Engine) lambdaItem(ws *StepWorkspace, i int) error {
	s := e.iterState
	idx := e.sp.rows[i]
	k := len(idx)
	aC, varphiC, out := ws.an[:k], ws.phin[:k], ws.xn[:k]
	arow, vrow := s.A[i], s.Varphi[i]
	for t, j := range idx {
		aC[t], varphiC[t] = arow[j], vrow[j]
	}
	if err := e.LambdaStepCompactInto(ws, i, aC, varphiC, out); err != nil {
		return err
	}
	dst := e.scratch.lambdaTilde[i]
	for t, j := range idx {
		dst[j] = out[t]
	}
	return nil
}

// datacenterItem is the datacenter-phase work item: datacenter j's μ-, ν-
// and a-predictions. The a-prediction is gathered and solved over the
// compact column, then scattered into a contiguous row of the transposed
// scratch matrix, so parallel items never share cache lines. Off-mask
// entries of that row were zeroed at init and are never written.
//
//ufc:hotpath
func (e *Engine) datacenterItem(ws *StepWorkspace, j int) error {
	s, sc := e.iterState, &e.scratch
	mu := e.MuStep(j, sc.sumA[j], s.Nu[j], s.Phi[j])
	//ufc:alloc only the general-convex V_j fallback allocates (bisection closure); the linear-tax path taken in benchmarks is allocation-free
	nu := e.NuStep(j, sc.sumA[j], mu, s.Phi[j])
	sc.muTilde[j], sc.nuTilde[j] = mu, nu
	idx := e.sp.cols[j]
	k := len(idx)
	lamC, varphiC, out := ws.lm[:k], ws.phim[:k], ws.xm[:k]
	for t, i := range idx {
		lamC[t], varphiC[t] = sc.lambdaTilde[i][j], s.Varphi[i][j]
	}
	if err := e.AStepCompactInto(ws, j, lamC, varphiC, mu, nu, s.Phi[j], out); err != nil {
		return err
	}
	row := sc.aTildeT[j]
	for t, i := range idx {
		row[i] = out[t]
	}
	return nil
}

// Residual returns the combined relative primal residual of the state: the
// worst of the a=λ coupling residual and the power-balance residual, both
// relative to the workload scale (the scaled units make them commensurate).
func (e *Engine) Residual(s *State) float64 {
	sp := e.sp
	var r float64
	for i, idx := range sp.rows {
		for _, j := range idx {
			if d := math.Abs(s.A[i][j] - s.Lambda[i][j]); d > r {
				r = d
			}
		}
	}
	for j := 0; j < e.n; j++ {
		var sumA float64
		for _, i := range sp.cols[j] {
			sumA += s.A[i][j]
		}
		if d := math.Abs(e.PowerBalance(j, sumA, s.Mu[j], s.Nu[j])); d > r {
			r = d
		}
	}
	return r / e.loadScale()
}

func (e *Engine) loadScale() float64 {
	scale := 1.0
	for _, a := range e.inst.Arrivals {
		if a > scale {
			scale = a
		}
	}
	return scale
}

// RoutingResidual measures convergence of the decisions that determine the
// final allocation: the a=λ coupling and the per-iteration change of the
// duals (relative to the instance's marginal-cost scale). The raw μ/ν
// iterates and the λ drift are excluded: near price/latency ties they
// slide along flat directions of the objective long after the coupling and
// duals have settled, without affecting the optimum, and Finalize
// recomputes the power split exactly from λ anyway.
func (e *Engine) RoutingResidual(s, prev *State) float64 {
	sp := e.sp
	var r float64
	for i, idx := range sp.rows {
		for _, j := range idx {
			if d := math.Abs(s.A[i][j] - s.Lambda[i][j]); d > r {
				r = d
			}
		}
	}
	r /= e.loadScale()
	for j := 0; j < e.n; j++ {
		if d := math.Abs(s.Phi[j]-prev.Phi[j]) / e.dualScale; d > r {
			r = d
		}
	}
	for i, idx := range sp.rows {
		for _, j := range idx {
			if d := math.Abs(s.Varphi[i][j]-prev.Varphi[i][j]) / e.dualScale; d > r {
				r = d
			}
		}
	}
	return r
}

// residualSnapshot copies the parts of src that RoutingResidual reads from
// the previous iterate — Phi and the (masked) Varphi block. Snapshotting
// only those keeps SolveState's per-iteration bookkeeping at one M×N sweep
// instead of the four a full state copy would cost, without changing a
// single returned float.
func (e *Engine) residualSnapshot(dst, src *State) {
	copy(dst.Phi, src.Phi)
	for i, idx := range e.sp.rows {
		drow, srow := dst.Varphi[i], src.Varphi[i]
		for _, j := range idx {
			drow[j] = srow[j]
		}
	}
}

// maskState zeroes the off-mask entries of the M×N blocks so a solve
// starts — and provably stays — inside the masked feasible set. Masked
// entries are preserved: warm starts from a previous solve under the same
// mask pass through untouched, while dense or differently-masked warm
// starts are projected onto the mask. Under the full mask it writes
// nothing.
func (e *Engine) maskState(s *State) {
	for i := 0; i < e.m; i++ {
		idx := e.sp.rows[i]
		lrow, arow, vrow := s.Lambda[i], s.A[i], s.Varphi[i]
		t := 0
		for j := 0; j < e.n; j++ {
			if t < len(idx) && int(idx[t]) == j {
				t++
				continue
			}
			lrow[j], arow[j], vrow[j] = 0, 0, 0
		}
	}
}

// Solve runs the full distributed 4-block ADM-G loop for the instance from
// the zero state and returns a feasible allocation (after the exact
// power-split finalization), the UFC breakdown, and solver statistics.
func Solve(inst *Instance, opts Options) (*Allocation, Breakdown, *Stats, error) {
	return SolveFrom(inst, opts, nil)
}

// SolveContext is Solve with cancellation: ctx is checked once per ADM-G
// iteration (no allocation, no syscall) and a cancelled solve returns
// ctx's error. A nil ctx behaves like context.Background.
func SolveContext(ctx context.Context, inst *Instance, opts Options) (*Allocation, Breakdown, *Stats, error) {
	return SolveFromContext(ctx, inst, opts, nil)
}

// SolveFrom is Solve warm-started from a prior iterate: s is iterated in
// place until convergence (a nil s means a cold start from the zero
// state). Seeding hour t's solve with hour t−1's converged state cuts the
// iteration count sharply when adjacent slots are similar, which is the
// trace-driven evaluation's common case.
func SolveFrom(inst *Instance, opts Options, s *State) (*Allocation, Breakdown, *Stats, error) {
	return SolveFromContext(context.Background(), inst, opts, s)
}

// SolveFromContext is SolveFrom with per-iteration cancellation.
func SolveFromContext(ctx context.Context, inst *Instance, opts Options, s *State) (*Allocation, Breakdown, *Stats, error) {
	e, err := NewEngine(inst, opts)
	if err != nil {
		return nil, Breakdown{}, nil, err
	}
	defer e.Close()
	if s == nil {
		s = NewState(e.m, e.n)
	}
	return e.SolveStateContext(ctx, s)
}

// SolveState runs the ADM-G loop on the engine's current instance starting
// from (and mutating) s, which must match the engine's dimensions. Combine
// with Reset to chain warm-started solves across slots without rebuilding
// the engine.
func (e *Engine) SolveState(s *State) (*Allocation, Breakdown, *Stats, error) {
	return e.SolveStateContext(context.Background(), s)
}

// SolveStateContext is SolveState with per-iteration cancellation: ctx is
// polled once per iteration via ctx.Err() — a single interface call, no
// allocation — so even tight solves stay responsive to cancellation
// without perturbing the iterate math.
func (e *Engine) SolveStateContext(ctx context.Context, s *State) (*Allocation, Breakdown, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkStateDims(s, e.m, e.n); err != nil {
		return nil, Breakdown{}, nil, err
	}
	e.maskState(s)
	stats := &Stats{}
	opts := e.opts
	prev := e.scratch.prev
	probe := opts.Probe
	warm := !stateIsZero(s)
	stats.WarmStarted = warm
	if opts.TrackResiduals {
		// The trace accumulates in engine-owned scratch (its capacity
		// survives warm-started re-solves) and is copied out below, so the
		// returned Stats never aliases state a later SolveState mutates.
		e.scratch.trace = e.scratch.trace[:0]
	}

	for iter := 1; iter <= opts.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, Breakdown{}, nil, fmt.Errorf("solve cancelled at iteration %d: %w", iter, err)
		}
		e.residualSnapshot(prev, s)
		if err := e.Iterate(s); err != nil {
			return nil, Breakdown{}, nil, fmt.Errorf("iteration %d: %w", iter, err)
		}
		res := e.RoutingResidual(s, prev)
		probe.ObserveIteration(res)
		if opts.TrackResiduals {
			e.scratch.trace = append(e.scratch.trace, res)
		}
		stats.Iterations = iter
		stats.FinalResidual = res
		if res <= opts.Tolerance {
			stats.Converged = true
			break
		}
	}
	if opts.TrackResiduals {
		stats.ResidualTrace = append([]float64(nil), e.scratch.trace...)
	}
	probe.ObserveSolve(stats.Iterations, stats.FinalResidual, stats.Converged, warm)

	alloc := e.Finalize(s)
	bd := Evaluate(e.inst, alloc)
	if !stats.Converged {
		return alloc, bd, stats, fmt.Errorf("residual %g after %d iterations: %w",
			stats.FinalResidual, stats.Iterations, ErrNotConverged)
	}
	return alloc, bd, stats, nil
}

// stateIsZero reports whether s is the all-zero iterate — the cold-start
// state. SolveState uses it to classify warm vs. cold starts for
// Stats.WarmStarted and the telemetry probe; the scan costs one pass over
// the state, far below a single ADM-G iteration.
func stateIsZero(s *State) bool {
	for i := range s.Lambda {
		for j := range s.Lambda[i] {
			if s.Lambda[i][j] != 0 || s.A[i][j] != 0 || s.Varphi[i][j] != 0 {
				return false
			}
		}
	}
	for j := range s.Mu {
		if s.Mu[j] != 0 || s.Nu[j] != 0 || s.Phi[j] != 0 {
			return false
		}
	}
	return true
}

// checkStateDims verifies that s is an m×n iterate.
func checkStateDims(s *State, m, n int) error {
	if s == nil || len(s.Lambda) != m || len(s.A) != m || len(s.Varphi) != m ||
		len(s.Mu) != n || len(s.Nu) != n || len(s.Phi) != n {
		return ErrBadState
	}
	for i := 0; i < m; i++ {
		if len(s.Lambda[i]) != n || len(s.A[i]) != n || len(s.Varphi[i]) != n {
			return ErrBadState
		}
	}
	return nil
}

// Finalize converts a (near-)converged iterate into an exactly feasible
// allocation: the routing is taken from λ (per-front-end feasible by
// construction) and the power split (μ_j, ν_j) is recomputed exactly from
// the induced demand via the 1-D convex split — which can only improve the
// objective and guarantees the power-balance constraint holds exactly.
func (e *Engine) Finalize(s *State) *Allocation {
	m, n := e.inst.Cloud.M(), e.inst.Cloud.N()
	alloc := NewAllocation(m, n)
	for i := 0; i < m; i++ {
		copy(alloc.Lambda[i], s.Lambda[i])
	}
	for j := 0; j < n; j++ {
		demand := e.inst.DemandMW(j, alloc.DCLoad(j))
		mu, nu := e.OptimalPowerSplit(j, demand)
		alloc.MuMW[j] = mu
		alloc.NuMW[j] = nu
	}
	return alloc
}

// OptimalPowerSplit solves the exact 1-D convex problem of covering the
// demand (MW) at datacenter j with fuel cells and grid power under the
// engine's strategy:
//
//	min  p0·μ + p_j·ν + V_j(C_j·ν)   s.t.  μ + ν = demand, 0 ≤ μ ≤ μmax, ν ≥ 0.
func (e *Engine) OptimalPowerSplit(j int, demand float64) (mu, nu float64) {
	if demand <= 0 {
		return 0, 0
	}
	switch e.opts.Strategy {
	case GridOnly:
		return 0, demand
	case FuelCellOnly:
		return demand, 0
	}
	hi := math.Min(e.capEq[j]*e.beta[j], demand)
	if hi <= 0 {
		return 0, demand
	}
	p0 := e.inst.FuelCellPriceUSD
	p := e.inst.PriceUSD[j]
	c := e.inst.CarbonRate[j]
	v := e.inst.EmissionCost[j]
	deriv := func(mu float64) float64 {
		gridLoad := demand - mu
		return p0 - p - c*v.Marginal(c*gridLoad)
	}
	mu = qp.MinimizeConvex1D(deriv, 0, hi, 1e-12)
	return mu, demand - mu
}

// MuMaxMW returns the effective fuel-cell capacity of datacenter j in MW
// under the engine's strategy.
func (e *Engine) MuMaxMW(j int) float64 { return e.capEq[j] * e.beta[j] }

// Rho returns the effective augmented-Lagrangian penalty used by the
// engine (Options.Rho times the instance's scale estimate).
func (e *Engine) Rho() float64 { return e.rho }

// EffectiveEpsilon returns the Gaussian back-substitution step actually
// applied (1 when the correction is disabled).
func (e *Engine) EffectiveEpsilon() float64 {
	if e.opts.DisableCorrection {
		return 1
	}
	return e.opts.Epsilon
}

// LoadScale returns the workload scale used to normalize primal residuals.
func (e *Engine) LoadScale() float64 { return e.loadScale() }

// DualScale returns the marginal-cost scale used to normalize dual-change
// residuals.
func (e *Engine) DualScale() float64 { return e.dualScale }

// BetaMW returns β_j in MW per workload unit (the server-equivalent scale
// factor for datacenter j's power variables).
func (e *Engine) BetaMW(j int) float64 { return e.beta[j] }
