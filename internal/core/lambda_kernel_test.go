package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bisectLambdaQP is the reference λ-QP kernel: it solves the same problem
// as solveLambdaQP by bisecting t = lᵀλ on [total·min(l), total·max(l)]
// to 1e-14 relative width, re-projecting at every probe. It was the
// production kernel before the exact piecewise-linear solve replaced it.
func bisectLambdaQP(ws *StepWorkspace, c, l []float64, rho, s, total float64, dst []float64) {
	if s == 0 {
		lambdaAt(ws, c, l, rho, 0, 0, total, dst)
		return
	}
	lo, hi := total*slices.Min(l), total*slices.Max(l)
	if hi <= lo {
		lambdaAt(ws, c, l, rho, s, lo, total, dst)
		return
	}
	for iter := 0; iter < 200 && hi-lo > 1e-14*(1+math.Abs(lo)+math.Abs(hi)); iter++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if lambdaAt(ws, c, l, rho, s, mid, total, dst) > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambdaAt(ws, c, l, rho, s, lo+(hi-lo)/2, total, dst)
}

// lambdaKKTResidual measures how far λ is from the KKT conditions of
// min F(λ) = ½ρ‖λ‖² + ½s(lᵀλ)² + cᵀλ over the simplex of mass total, in
// units of λ. With g = ∇F(λ) and ν the mid-range of g over the support
// S = {j : λ_j > 0}, it is the largest of |g_j − ν|/ρ on S, (ν − g_j)/ρ
// off S, and |Σλ − total|; it is zero exactly at the optimum. floor is the
// rounding error of evaluating g and Σλ, below which residuals are not
// resolved.
func lambdaKKTResidual(c, l, lambda []float64, rho, s, total float64) (res, floor float64) {
	var t, sum float64
	for j, x := range lambda {
		t += l[j] * x
		sum += x
	}
	g := make([]float64, len(lambda))
	gmin, gmax := math.Inf(1), math.Inf(-1)
	var scale float64
	for j, x := range lambda {
		g[j] = rho*x + s*t*l[j] + c[j]
		scale = math.Max(scale, math.Abs(rho*x)+math.Abs(s*t*l[j])+math.Abs(c[j]))
		if x > 0 {
			gmin, gmax = math.Min(gmin, g[j]), math.Max(gmax, g[j])
		}
	}
	nu := gmin + (gmax-gmin)/2
	res = math.Abs(sum - total)
	for j, x := range lambda {
		if x > 0 {
			res = math.Max(res, math.Abs(g[j]-nu)/rho)
		} else {
			res = math.Max(res, (nu-g[j])/rho)
		}
	}
	return res, 8 * 0x1p-52 * math.Max(scale/rho, total)
}

// logUniform draws from [lo, hi] uniformly in log scale.
func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// lambdaRow draws one λ-QP row shaped like LambdaStepCompactInto's: the
// latencies of a feasible row (seconds), and c = φ − ρa with a a routing
// copy of the row's mass and φ a dual of the same scale.
func lambdaRow(rng *rand.Rand, width int, rho, total float64) (c, l []float64) {
	c, l = make([]float64, width), make([]float64, width)
	for j := range l {
		l[j] = 0.001 + 0.2*rng.Float64()
		a := total * rng.Float64() * 2 / float64(width)
		phi := rho * total * rng.NormFloat64() / float64(width)
		c[j] = phi - rho*a
	}
	return c, l
}

// TestLambdaKernelMatchesBisection holds the exact kernel to the
// bisection reference on random rows: the two optima agree within
// 1e-8·A in every coordinate, the exact kernel's output is feasible, and
// its KKT residual is no larger than the reference's. The bisection's
// stopping width shows in the reference's own residual at large s/ρ, so
// the kernels are not required to agree bit for bit; residuals at the
// rounding floor (a few ulps of A) compare as equal.
func TestLambdaKernelMatchesBisection(t *testing.T) {
	const rows, maxWidth = 10000, 200
	rng := rand.New(rand.NewSource(7))
	ws := &StepWorkspace{vn: make([]float64, maxWidth), pn: make([]float64, maxWidth)}
	got, want := make([]float64, maxWidth), make([]float64, maxWidth)
	var worstDiff, worstSum float64
	for r := 0; r < rows; r++ {
		width := 1 + rng.Intn(maxWidth)
		rho := logUniform(rng, 1e-3, 1e3)
		s := logUniform(rng, 1e-2, 1e6)
		total := logUniform(rng, 1, 1000)
		c, l := lambdaRow(rng, width, rho, total)
		x, ref := got[:width], want[:width]
		solveLambdaQP(ws, c, l, rho, s, total, x)
		bisectLambdaQP(ws, c, l, rho, s, total, ref)

		var sum, diff float64
		for j := range x {
			if !(x[j] >= 0) {
				t.Fatalf("row %d (width %d, ρ=%g, s=%g, A=%g): λ[%d] = %g < 0", r, width, rho, s, total, j, x[j])
			}
			sum += x[j]
			diff = math.Max(diff, math.Abs(x[j]-ref[j]))
		}
		if d := math.Abs(sum - total); d > 1e-12*total {
			t.Fatalf("row %d (width %d, ρ=%g, s=%g, A=%g): Σλ = %.17g, off by %.3g", r, width, rho, s, total, sum, d)
		}
		if diff > 1e-8*total {
			t.Fatalf("row %d (width %d, ρ=%g, s=%g, A=%g): |Δλ|∞ = %.3g > 1e-8·A", r, width, rho, s, total, diff)
		}
		kkt, floor := lambdaKKTResidual(c, l, x, rho, s, total)
		refKKT, _ := lambdaKKTResidual(c, l, ref, rho, s, total)
		if kkt > math.Max(refKKT, floor) {
			t.Fatalf("row %d (width %d, ρ=%g, s=%g, A=%g): KKT residual %.3g > reference %.3g", r, width, rho, s, total, kkt, refKKT)
		}
		worstDiff = math.Max(worstDiff, diff/total)
		worstSum = math.Max(worstSum, math.Abs(sum-total)/total)
	}
	t.Logf("%d rows: max |Δλ|∞/A = %.3g, max |Σλ−A|/A = %.3g", rows, worstDiff, worstSum)
}
