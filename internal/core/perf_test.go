package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestIterateZeroAllocs is the allocation regression gate for the
// tentpole guarantee: after warm-up, the steady-state ADM-G iteration
// must not touch the heap at all.
func TestIterateZeroAllocs(t *testing.T) {
	inst := smallInstance(t, 41)
	eng, err := core.NewEngine(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := core.NewState(inst.Cloud.M(), inst.Cloud.N())
	for k := 0; k < 5; k++ {
		if err := eng.Iterate(state); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := eng.Iterate(state); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Iterate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLambdaStepZeroAllocs is the allocation gate for the exact λ-step:
// a Quadratic-utility LambdaStepCompactInto with a caller-owned workspace
// must not touch the heap.
func TestLambdaStepZeroAllocs(t *testing.T) {
	inst := smallInstance(t, 50)
	eng, err := core.NewEngine(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	state := core.NewState(m, n)
	for k := 0; k < 5; k++ {
		if err := eng.Iterate(state); err != nil {
			t.Fatal(err)
		}
	}
	ws := eng.NewStepWorkspace()
	dst := make([]float64, n)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := eng.LambdaStepCompactInto(ws, i, state.A[i], state.Varphi[i], dst); err != nil {
			t.Fatal(err)
		}
		i = (i + 1) % m
	})
	if allocs != 0 {
		t.Fatalf("LambdaStepCompactInto allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkLambdaStep times one Quadratic-utility λ-step on rows of 5, 50
// and 200 datacenters: a fleet row under the region cutoff, a wide
// region, and a dense 200-datacenter row. Each engine is dense over a
// synthetic topology with that many datacenters and 20 front-ends; the
// rows come from the state after 30 iterations, cycling over the
// front-ends.
func BenchmarkLambdaStep(b *testing.B) {
	for _, width := range []int{5, 50, 200} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			st, err := experiments.NewSyntheticTopology(experiments.Topology{N: width, M: 20, Regions: 1}, 7)
			if err != nil {
				b.Fatal(err)
			}
			inst := st.Instance(107)
			eng, err := core.NewEngine(inst, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			m := inst.Cloud.M()
			state := core.NewState(m, width)
			for k := 0; k < 30; k++ {
				if err := eng.Iterate(state); err != nil {
					b.Fatal(err)
				}
			}
			ws := eng.NewStepWorkspace()
			dst := make([]float64, width)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				i := k % m
				if err := eng.LambdaStepCompactInto(ws, i, state.A[i], state.Varphi[i], dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// perturb returns a shallow copy of inst with arrivals and grid prices
// moved a few percent — the shape of two adjacent hourly slots.
func perturb(inst *core.Instance, f float64) *core.Instance {
	next := *inst
	next.Arrivals = append([]float64(nil), inst.Arrivals...)
	next.PriceUSD = append([]float64(nil), inst.PriceUSD...)
	for i := range next.Arrivals {
		next.Arrivals[i] *= 1 + f*float64(i%3-1)
	}
	for j := range next.PriceUSD {
		next.PriceUSD[j] *= 1 - f*float64(j%2)
	}
	return &next
}

// TestWarmStartEquivalence checks the warm-start contract: seeding hour t
// with hour t−1's converged state must reach the same optimum (UFC within
// tolerance) in fewer iterations than a cold start.
func TestWarmStartEquivalence(t *testing.T) {
	prev := smallInstance(t, 42)
	next := perturb(prev, 0.04)
	opts := core.Options{Tolerance: 1e-9}

	_, _, prevStats, err := core.Solve(prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, coldBD, coldStats, err := core.Solve(next, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Re-solve hour t−1 into a reusable state, then warm-start hour t.
	eng, err := core.NewEngine(prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	state := core.NewState(prev.Cloud.M(), prev.Cloud.N())
	if _, _, _, err := eng.SolveState(state); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(next); err != nil {
		t.Fatal(err)
	}
	_, warmBD, warmStats, err := eng.SolveState(state)
	if err != nil {
		t.Fatal(err)
	}

	if rel := math.Abs(warmBD.UFC-coldBD.UFC) / math.Max(1, math.Abs(coldBD.UFC)); rel > 1e-3 {
		t.Errorf("warm UFC %.6f vs cold %.6f (rel err %.2e)", warmBD.UFC, coldBD.UFC, rel)
	}
	if warmStats.Iterations >= coldStats.Iterations {
		t.Errorf("warm start took %d iterations, cold took %d — no savings", warmStats.Iterations, coldStats.Iterations)
	}
	t.Logf("cold %d iters (prev slot %d), warm %d iters, UFC cold %.4f warm %.4f",
		coldStats.Iterations, prevStats.Iterations, warmStats.Iterations, coldBD.UFC, warmBD.UFC)
}

// TestResetMatchesFreshSolve: Reset on a live engine plus a zero state
// must reproduce a fresh engine's solve exactly.
func TestResetMatchesFreshSolve(t *testing.T) {
	a := smallInstance(t, 43)
	b := perturb(a, 0.05)
	opts := core.Options{}

	eng, err := core.NewEngine(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, _, _, err := eng.SolveState(core.NewState(a.Cloud.M(), a.Cloud.N())); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(b); err != nil {
		t.Fatal(err)
	}
	_, resetBD, resetStats, err := eng.SolveState(core.NewState(a.Cloud.M(), a.Cloud.N()))
	if err != nil {
		t.Fatal(err)
	}
	_, freshBD, freshStats, err := core.Solve(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if resetBD.UFC != freshBD.UFC || resetStats.Iterations != freshStats.Iterations {
		t.Errorf("reset engine: UFC %v iters %d; fresh: UFC %v iters %d",
			resetBD.UFC, resetStats.Iterations, freshBD.UFC, freshStats.Iterations)
	}
}

// TestResetRejectsMismatchedTopology: Reset must refuse a cloud of
// different dimensions.
func TestResetRejectsMismatchedTopology(t *testing.T) {
	inst := smallInstance(t, 44)
	eng, err := core.NewEngine(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := smallInstance(t, 45)
	other.Cloud = nil
	if err := eng.Reset(other); err == nil {
		t.Fatal("Reset accepted an invalid instance")
	}
}

// TestParallelIteratesBitIdentical: with Options.Workers > 1 every
// iterate must be bit-for-bit equal to the serial one — the property
// distsim's state-equivalence test builds on.
func TestParallelIteratesBitIdentical(t *testing.T) {
	inst := smallInstance(t, 46)
	m, n := inst.Cloud.M(), inst.Cloud.N()

	serial, err := core.NewEngine(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.NewEngine(inst, core.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	ss, ps := core.NewState(m, n), core.NewState(m, n)
	for it := 0; it < 50; it++ {
		if err := serial.Iterate(ss); err != nil {
			t.Fatal(err)
		}
		if err := par.Iterate(ps); err != nil {
			t.Fatal(err)
		}
		if !statesEqual(ss, ps) {
			t.Fatalf("iterate %d: parallel state diverged from serial", it)
		}
	}
}

func statesEqual(a, b *core.State) bool {
	mat := func(x, y [][]float64) bool {
		for i := range x {
			for j := range x[i] {
				if x[i][j] != y[i][j] {
					return false
				}
			}
		}
		return true
	}
	vec := func(x, y []float64) bool {
		for j := range x {
			if x[j] != y[j] {
				return false
			}
		}
		return true
	}
	return mat(a.Lambda, b.Lambda) && mat(a.A, b.A) && mat(a.Varphi, b.Varphi) &&
		vec(a.Mu, b.Mu) && vec(a.Nu, b.Nu) && vec(a.Phi, b.Phi)
}

// TestParallelSolveMatchesSerial runs the full solver both ways and
// demands identical results and iteration counts.
func TestParallelSolveMatchesSerial(t *testing.T) {
	inst := smallInstance(t, 47)
	_, serialBD, serialStats, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, parBD, parStats, err := core.Solve(inst, core.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serialBD.UFC != parBD.UFC || serialStats.Iterations != parStats.Iterations {
		t.Errorf("parallel solve: UFC %v iters %d; serial: UFC %v iters %d",
			parBD.UFC, parStats.Iterations, serialBD.UFC, serialStats.Iterations)
	}
}

// TestSolveFromNilStateMatchesSolve: SolveFrom with a nil state is Solve.
func TestSolveFromNilStateMatchesSolve(t *testing.T) {
	inst := smallInstance(t, 48)
	_, bd1, st1, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, bd2, st2, err := core.SolveFrom(inst, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bd1.UFC != bd2.UFC || st1.Iterations != st2.Iterations {
		t.Errorf("SolveFrom(nil) diverged: UFC %v vs %v", bd2.UFC, bd1.UFC)
	}
}

// TestSolveStateRejectsBadDims guards the warm-start entry point.
func TestSolveStateRejectsBadDims(t *testing.T) {
	inst := smallInstance(t, 49)
	eng, err := core.NewEngine(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := eng.SolveState(core.NewState(1, 1)); err == nil {
		t.Fatal("SolveState accepted a mismatched state")
	}
	if _, _, _, err := eng.SolveState(nil); err == nil {
		t.Fatal("SolveState accepted a nil state")
	}
}
