package core

// sparsity is the routing-feasibility mask: the set of (front-end i,
// datacenter j) pairs the solver may route over. Every M×N loop — λ-steps,
// a-steps, dual updates, residuals — walks only this set, so
// per-iteration work and wire traffic scale with the number of feasible
// pairs instead of M·N. Off-mask variables are identically zero for the
// whole solve, which makes the masked iterate a feasible point of the
// dense problem with the extra constraint λ_ij = a_ij = 0 off-mask.
//
// A dense engine (Options.SparsityCutoff zero) carries the full mask,
// where every pair is feasible; a positive cutoff keeps the pairs whose
// propagation latency is at most the cutoff. Both index lists are
// ascending.
type sparsity struct {
	rows [][]int32 // per front-end i: feasible datacenter indices j
	cols [][]int32 // per datacenter j: feasible front-end indices i
	nnz  int       // number of feasible pairs
}

// fullSparsity is the mask of an M×N engine with every pair feasible. It
// depends only on the shape: every row shares one ascending 0..N−1 list
// and every column one 0..M−1 list, so it costs O(M+N) memory.
func fullSparsity(m, n int) *sparsity {
	ascending := func(k int) []int32 {
		idx := make([]int32, k)
		for t := range idx {
			idx[t] = int32(t)
		}
		return idx
	}
	sp := &sparsity{rows: make([][]int32, m), cols: make([][]int32, n), nnz: m * n}
	allCols, allRows := ascending(n), ascending(m)
	for i := range sp.rows {
		sp.rows[i] = allCols
	}
	for j := range sp.cols {
		sp.cols[j] = allRows
	}
	return sp
}

// resetMask installs the mask a freshly shaped engine starts from: the
// full mask on a dense engine, and none on a cutoff engine, whose mask
// configure builds from the instance's latencies.
func (e *Engine) resetMask() {
	e.sp, e.spCloud = nil, nil
	if e.opts.SparsityCutoff == 0 {
		e.sp = fullSparsity(e.m, e.n)
	}
}

// buildSparsity derives a cutoff mask from the engine's latency cache. Every
// front-end keeps at least its nearest datacenter (first index on ties),
// so the per-row simplex constraint Σ_j λ_ij = A_i always has a feasible
// support; a datacenter outside every front-end's cutoff simply receives
// no load. The construction reads only lat, so it is deterministic. Both
// index lists share one backing slab each, so the mask adds two
// allocations regardless of M and N.
func buildSparsity(lat [][]float64, cutoff float64) *sparsity {
	m := len(lat)
	n := 0
	if m > 0 {
		n = len(lat[0])
	}
	sp := &sparsity{
		rows: make([][]int32, m),
		cols: make([][]int32, n),
	}
	// Pass 1: per-row and per-column feasible counts. forced[i] holds the
	// argmin-latency datacenter of a row with no pair under the cutoff,
	// -1 otherwise.
	rowCnt := make([]int, m)
	colCnt := make([]int, n)
	forced := make([]int32, m)
	for i := 0; i < m; i++ {
		row := lat[i]
		cnt, argmin := 0, 0
		for j := 0; j < n; j++ {
			if row[j] < row[argmin] {
				argmin = j
			}
			if row[j] <= cutoff {
				cnt++
			}
		}
		if cnt == 0 {
			// Force the nearest datacenter so the row stays feasible.
			forced[i] = int32(argmin)
			rowCnt[i] = 1
			colCnt[argmin]++
			sp.nnz++
			continue
		}
		forced[i] = -1
		rowCnt[i] = cnt
		sp.nnz += cnt
		for j := 0; j < n; j++ {
			if row[j] <= cutoff {
				colCnt[j]++
			}
		}
	}
	// Pass 2: carve both index lists out of single slabs and fill them in
	// ascending scan order (columns inherit ascending i because rows are
	// visited in order).
	rowBack := make([]int32, sp.nnz)
	colBack := make([]int32, sp.nnz)
	off := 0
	for i, cnt := range rowCnt {
		sp.rows[i] = rowBack[off : off : off+cnt]
		off += cnt
	}
	off = 0
	for j, cnt := range colCnt {
		sp.cols[j] = colBack[off : off : off+cnt]
		off += cnt
	}
	for i := 0; i < m; i++ {
		if j := forced[i]; j >= 0 {
			sp.rows[i] = append(sp.rows[i], j)
			sp.cols[j] = append(sp.cols[j], int32(i))
			continue
		}
		row := lat[i]
		for j := 0; j < n; j++ {
			if row[j] <= cutoff {
				sp.rows[i] = append(sp.rows[i], int32(j))
				sp.cols[j] = append(sp.cols[j], int32(i))
			}
		}
	}
	return sp
}

// Sparse reports whether the engine routes under a latency cutoff
// (Options.SparsityCutoff > 0) rather than the full mask.
func (e *Engine) Sparse() bool { return e.opts.SparsityCutoff > 0 }

// FeasiblePairs returns the number of (front-end, datacenter) pairs the
// solver iterates over: the mask size, M·N when dense.
func (e *Engine) FeasiblePairs() int { return e.sp.nnz }

// FeasibleCols returns the ascending datacenter indices front-end i may
// route to — all N on a dense engine. The slice is owned by the engine
// and must not be mutated.
func (e *Engine) FeasibleCols(i int) []int32 { return e.sp.rows[i] }

// FeasibleRows returns the ascending front-end indices that may route to
// datacenter j — all M on a dense engine. The slice is owned by the
// engine and must not be mutated.
func (e *Engine) FeasibleRows(j int) []int32 { return e.sp.cols[j] }
