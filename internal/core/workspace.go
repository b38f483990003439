package core

import "sync/atomic"

// StepWorkspace holds the per-caller scratch buffers of the λ- and a-step
// solvers. The engine owns one workspace per configured worker; external
// long-running agents (internal/distsim) create their own with
// NewStepWorkspace so repeated step calls allocate nothing. A workspace
// must not be shared between concurrent callers.
//
// Every buffer is sized for a full row or column; the steps use the
// compact prefix of the mask row's or column's length.
type StepWorkspace struct {
	cn, vn, pn []float64 // length-N buffers: λ-step cost, projection input, sort scratch
	ln         []float64 // length-N buffer: gathered latencies
	an, phin   []float64 // length-N buffers: Iterate's gathered a and φ rows
	xn         []float64 // length-N buffer: Iterate's compact λ output
	cm         []float64 // length-M buffer: a-step cost
	sortm      []float64 // length-M sort buffer for the water-filling solver
	prefm      []float64 // length-M+1 prefix sums
	lm, phim   []float64 // length-M buffers: Iterate's gathered λ̃ and φ columns
	xm         []float64 // length-M buffer: Iterate's compact a output
}

// NewStepWorkspace returns a workspace sized for the engine's topology.
func (e *Engine) NewStepWorkspace() *StepWorkspace { return e.newStepWorkspace() }

func (e *Engine) newStepWorkspace() *StepWorkspace {
	m, n := e.m, e.n
	return &StepWorkspace{
		cn:    make([]float64, n),
		vn:    make([]float64, n),
		pn:    make([]float64, n),
		ln:    make([]float64, n),
		an:    make([]float64, n),
		phin:  make([]float64, n),
		xn:    make([]float64, n),
		cm:    make([]float64, m),
		sortm: make([]float64, m),
		prefm: make([]float64, m+1),
		lm:    make([]float64, m),
		phim:  make([]float64, m),
		xm:    make([]float64, m),
	}
}

// iterScratch is the engine-owned storage for every per-iteration
// temporary of Iterate, allocated once so the steady-state loop is
// allocation-free.
type iterScratch struct {
	lambdaTilde [][]float64 // m×n λ-predictions
	aTildeT     [][]float64 // n×m a-predictions, transposed: row j = datacenter j
	muTilde     []float64   // n
	nuTilde     []float64   // n
	sumA        []float64   // n, Σ_i a_ij of the incoming state
	prev        *State      // previous iterate for SolveState's residual
	trace       []float64   // residual-trace accumulator, reset per solve
}

func (sc *iterScratch) init(m, n int) {
	sc.lambdaTilde = matrixRows(m, n)
	sc.aTildeT = matrixRows(n, m)
	sc.muTilde = make([]float64, n)
	sc.nuTilde = make([]float64, n)
	sc.sumA = make([]float64, n)
	sc.prev = NewState(m, n)
}

// matrixRows builds an r×c row matrix over a single backing allocation.
// Rows are full-capacity slices, so an append on one row can never bleed
// into the next.
func matrixRows(r, c int) [][]float64 {
	rows, _ := carveRows(make([]float64, r*c), r, c)
	return rows
}

// carveRows slices an r×c row matrix off the front of slab and returns the
// rows plus the remaining slab. Rows are full-capacity slices, so an
// append on one row can never bleed into the next.
func carveRows(slab []float64, r, c int) ([][]float64, []float64) {
	rows := make([][]float64, r)
	for i := range rows {
		rows[i] = slab[i*c : (i+1)*c : (i+1)*c]
	}
	return rows, slab[r*c:]
}

// phaseID names the fan-out phases of Iterate. Work items are engine
// methods rather than closures so that dispatching them allocates nothing.
type phaseID uint8

const (
	phaseLambda     phaseID = iota + 1 // per-front-end λ-minimization
	phaseDatacenter                    // per-datacenter μ/ν/a-minimization
)

//ufc:hotpath
func (e *Engine) phaseItem(ph phaseID, ws *StepWorkspace, idx int) error {
	if ph == phaseLambda {
		return e.lambdaItem(ws, idx)
	}
	return e.datacenterItem(ws, idx)
}

// workerPool is the persistent goroutine pool behind Options.Workers.
// Workers claim item indices from a shared atomic counter (work stealing),
// but every item writes to a fixed, item-determined location and each
// item's value depends only on the pre-phase state — so the schedule
// cannot influence the floats produced, and parallel iterates are
// bit-identical to serial ones.
type workerPool struct {
	e       *Engine
	helpers int          // goroutines beyond the calling one
	wake    chan phaseID // one send per helper per phase; closed by Close
	done    chan error   // one result per helper per phase
	next    atomic.Int64 // shared work-stealing cursor
	count   int64        // items in the current phase
}

// runPhase executes items 0..count-1 of the phase, fanning out across the
// worker pool when Options.Workers > 1 (the pool is spawned on first use,
// so engines that never call Iterate — e.g. distsim's per-agent engines —
// never start goroutines).
func (e *Engine) runPhase(ph phaseID, count int) error {
	if e.opts.Workers > 1 && e.pool == nil {
		e.pool = &workerPool{
			e:       e,
			helpers: e.opts.Workers - 1,
			wake:    make(chan phaseID),
			done:    make(chan error, e.opts.Workers-1),
		}
		for w := 1; w < e.opts.Workers; w++ {
			go e.pool.run(e.ws[w])
		}
	}
	p := e.pool
	if p == nil || count <= 1 {
		ws := e.ws[0]
		for idx := 0; idx < count; idx++ {
			if err := e.phaseItem(ph, ws, idx); err != nil {
				return err
			}
		}
		return nil
	}
	p.count = int64(count)
	p.next.Store(0)
	for w := 0; w < p.helpers; w++ {
		p.wake <- ph
	}
	err := p.drain(ph, e.ws[0])
	for w := 0; w < p.helpers; w++ {
		if herr := <-p.done; herr != nil && err == nil {
			err = herr
		}
	}
	return err
}

// drain claims and runs items until the phase is exhausted, returning the
// first error encountered (remaining items still run; they only write
// scratch).
//
//ufc:hotpath
func (p *workerPool) drain(ph phaseID, ws *StepWorkspace) error {
	var first error
	for {
		idx := p.next.Add(1) - 1
		if idx >= p.count {
			return first
		}
		if err := p.e.phaseItem(ph, ws, int(idx)); err != nil && first == nil {
			first = err
		}
	}
}

func (p *workerPool) run(ws *StepWorkspace) {
	for ph := range p.wake {
		p.done <- p.drain(ph, ws)
	}
}

// Close releases the engine's worker pool, if one was started. It is
// required (and only meaningful) for engines iterated with
// Options.Workers > 1 outside Solve/SolveFrom, which close their engines
// themselves. Close must not race an in-flight Iterate; it is idempotent.
func (e *Engine) Close() {
	if e.pool != nil {
		close(e.pool.wake)
		e.pool = nil
	}
}
