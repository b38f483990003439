package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/utility"
)

// sparseTopology builds a synthetic regional fleet and the instance used
// by the sparsity tests.
func sparseTopology(t *testing.T, n, m, r int, seed int64) (*experiments.SyntheticTopology, *core.Instance) {
	t.Helper()
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: n, M: m, Regions: r}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st, st.Instance(seed + 100)
}

// TestSparseSolveConverges: under the region cutoff the masked solver must
// converge to a feasible allocation that routes only inside the mask, with
// a mask far smaller than M·N, and land near the dense optimum (the
// geographic separation makes remote routing unattractive anyway).
func TestSparseSolveConverges(t *testing.T) {
	st, inst := sparseTopology(t, 8, 64, 4, 12)
	// Regional capacity binds harder than in the free-routing paper
	// topology, and Finalize takes λ as-is — so the coupling tolerance is
	// also the capacity slack. Solve a decade tighter than the default and
	// allow one server of slop in the feasibility report.
	opts := core.Options{SparsityCutoff: st.CutoffSec, Tolerance: 2.5e-5, MaxIterations: 20000}
	eng, err := core.NewEngine(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	if nnz := eng.FeasiblePairs(); nnz >= m*n/2 {
		t.Fatalf("region cutoff left %d of %d pairs feasible — not sparse", nnz, m*n)
	}
	state := core.NewState(m, n)
	alloc, bd, stats, err := eng.SolveState(state)
	if err != nil {
		t.Fatalf("sparse solve: %v (iters %d, residual %g)", err, stats.Iterations, stats.FinalResidual)
	}
	if rep := core.CheckFeasibility(inst, alloc); !rep.Ok(1) {
		t.Fatalf("sparse allocation infeasible beyond one server: %+v", rep)
	}
	// Off-mask routing must be exactly zero in the iterate and allocation.
	for i := 0; i < m; i++ {
		cols := eng.FeasibleCols(i)
		mask := make(map[int32]bool, len(cols))
		for _, j := range cols {
			mask[j] = true
		}
		for j := 0; j < n; j++ {
			if !mask[int32(j)] && (state.Lambda[i][j] != 0 || alloc.Lambda[i][j] != 0) {
				t.Fatalf("off-mask routing fe %d → dc %d: λ=%g alloc=%g", i, j, state.Lambda[i][j], alloc.Lambda[i][j])
			}
		}
	}
	_, denseBD, _, err := core.Solve(inst, core.Options{MaxIterations: 4000})
	if err != nil {
		t.Fatal(err)
	}
	gap := math.Abs(bd.UFC-denseBD.UFC) / math.Max(1, math.Abs(denseBD.UFC))
	t.Logf("sparse UFC %.4f vs dense %.4f (gap %.3g), %d/%d pairs, %d iters",
		bd.UFC, denseBD.UFC, gap, eng.FeasiblePairs(), m*n, stats.Iterations)
	if gap > 0.05 {
		t.Errorf("sparse optimum %g strays %.1f%% from dense %g", bd.UFC, 100*gap, denseBD.UFC)
	}
}

// TestSparseParallelBitIdentical extends the worker-determinism guarantee
// to the masked paths: sparse iterates with Workers > 1 must be
// bit-identical to serial sparse ones.
func TestSparseParallelBitIdentical(t *testing.T) {
	st, inst := sparseTopology(t, 8, 48, 4, 13)
	serial, err := core.NewEngine(inst, core.Options{SparsityCutoff: st.CutoffSec})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.NewEngine(inst, core.Options{SparsityCutoff: st.CutoffSec, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	ss, ps := core.NewState(m, n), core.NewState(m, n)
	for it := 0; it < 40; it++ {
		if err := serial.Iterate(ss); err != nil {
			t.Fatal(err)
		}
		if err := par.Iterate(ps); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(ss, ps) {
			t.Fatalf("iterate %d: parallel sparse state diverged from serial", it)
		}
	}
}

// TestSparseIterateZeroAllocs: the masked hot loop must stay off the heap
// like the dense one, serially and when the worker pool fans the phases
// out.
func TestSparseIterateZeroAllocs(t *testing.T) {
	st, inst := sparseTopology(t, 8, 48, 4, 14)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng, err := core.NewEngine(inst, core.Options{SparsityCutoff: st.CutoffSec, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			state := core.NewState(inst.Cloud.M(), inst.Cloud.N())
			for k := 0; k < 5; k++ {
				if err := eng.Iterate(state); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := eng.Iterate(state); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("sparse Iterate with %d workers allocates %.1f objects/op, want 0", workers, allocs)
			}
		})
	}
}

// TestSparseRejectsGenericUtility: the masked λ-step only exists for the
// exact QP path, so engine construction must fail fast otherwise.
func TestSparseRejectsGenericUtility(t *testing.T) {
	_, inst := sparseTopology(t, 4, 12, 2, 15)
	inst.Utility = utility.Exponential{K: 50}
	if _, err := core.NewEngine(inst, core.Options{SparsityCutoff: 0.004}); err == nil {
		t.Fatal("sparse engine accepted a generic utility")
	}
	if _, err := core.NewEngine(inst, core.Options{}); err != nil {
		t.Fatalf("dense engine should accept a generic utility: %v", err)
	}
}

// TestNewStateAllocs: the slab-backed state must cost a constant number of
// allocations — one slab, three row headers, the struct — at any M·N.
func TestNewStateAllocs(t *testing.T) {
	for _, shape := range []struct{ m, n int }{{10, 4}, {2000, 50}} {
		allocs := testing.AllocsPerRun(20, func() {
			s := core.NewState(shape.m, shape.n)
			if len(s.Phi) != shape.n {
				t.Fatal("bad state")
			}
		})
		if allocs > 5 {
			t.Errorf("NewState(%d, %d) costs %.0f allocs, want ≤ 5 (slab-backed)", shape.m, shape.n, allocs)
		}
	}
}

// TestEngineResetReshape: Reset with a different (M, N) must rebuild the
// engine — fresh scratch, no aliasing into old buffers — and a subsequent
// solve must match a fresh engine bit for bit, including under workers and
// sparsity.
func TestEngineResetReshape(t *testing.T) {
	stA, instA := sparseTopology(t, 4, 20, 2, 16)
	stB, instB := sparseTopology(t, 8, 56, 4, 17)
	for _, opts := range []core.Options{
		{},
		{Workers: 3},
		{SparsityCutoff: math.Max(stA.CutoffSec, stB.CutoffSec)},
	} {
		eng, err := core.NewEngine(instA, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Solve at the original shape so every scratch buffer is warm.
		if _, _, _, err := eng.SolveState(core.NewState(20, 4)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Reset(instB); err != nil {
			t.Fatalf("reshape Reset: %v", err)
		}
		reState := core.NewState(56, 8)
		_, reBD, reStats, err := eng.SolveState(reState)
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()

		fresh, err := core.NewEngine(instB, opts)
		if err != nil {
			t.Fatal(err)
		}
		frState := core.NewState(56, 8)
		_, frBD, frStats, err := fresh.SolveState(frState)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
		if reBD.UFC != frBD.UFC || reStats.Iterations != frStats.Iterations {
			t.Errorf("opts %+v: reshaped engine UFC %v in %d iters, fresh %v in %d",
				opts, reBD.UFC, reStats.Iterations, frBD.UFC, frStats.Iterations)
		}
		if !statesEqual(reState, frState) {
			t.Errorf("opts %+v: reshaped engine's final state differs from fresh engine's", opts)
		}
	}
}

// TestEngineResetReshapeRejectsOldState: a state from the previous shape
// must be rejected, not silently misread.
func TestEngineResetReshapeRejectsOldState(t *testing.T) {
	_, instA := sparseTopology(t, 4, 20, 2, 18)
	_, instB := sparseTopology(t, 8, 56, 4, 19)
	eng, err := core.NewEngine(instA, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := core.NewState(20, 4)
	if err := eng.Reset(instB); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.SolveState(old); err == nil {
		t.Fatal("reshaped engine accepted a stale-shape state")
	}
}
