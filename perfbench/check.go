package main

import (
	"fmt"
	"math"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/distsim"
)

// Correctness bounds. Every seed the benchmark is run with meets them by
// a wide margin; a result outside them counts as a failed operation.
const (
	// maxRowError bounds how far a published routing row may sum from 1.
	maxRowError = 1e-9
	// maxObjectiveGap bounds |UFC − UFC_ref| / |UFC_ref| of a published
	// decision against the workload's reference optimum.
	maxObjectiveGap = 0.02
)

// publishedAllocation rebuilds the decision a snapshot publishes: each
// front-end's arrivals split by its routing weights, and each
// datacenter's demand covered by the exact optimal fuel-cell/grid split
// (the same split the solver's Finalize computes). chk must be an engine
// reset to inst.
func publishedAllocation(inst *core.Instance, chk *core.Engine, snap *controlplane.Snapshot) *core.Allocation {
	m, n := snap.M, snap.N
	alloc := core.NewAllocation(m, n)
	w := make([]float64, n)
	for i := 0; i < m; i++ {
		snap.Weights(i, w)
		for j, v := range w {
			alloc.Lambda[i][j] = v * inst.Arrivals[i]
		}
	}
	for j := 0; j < n; j++ {
		alloc.MuMW[j], alloc.NuMW[j] = chk.OptimalPowerSplit(j, inst.DemandMW(j, alloc.DCLoad(j)))
	}
	return alloc
}

// checkSlot validates one published slot: converged, well-formed rows and
// a feasible decision. It returns the decision's UFC for the gap check.
func checkSlot(inst *core.Instance, chk *core.Engine, snap *controlplane.Snapshot) (float64, error) {
	if snap == nil {
		return 0, fmt.Errorf("no snapshot published")
	}
	if m, n := inst.Cloud.M(), inst.Cloud.N(); snap.M != m || snap.N != n {
		return 0, fmt.Errorf("slot %d: snapshot is %dx%d, instance %dx%d", snap.Slot, snap.M, snap.N, m, n)
	}
	if !snap.Info.Converged {
		return 0, fmt.Errorf("slot %d: not converged (residual %.3g after %d iterations)", snap.Slot, snap.Info.Residual, snap.Info.Iterations)
	}
	if e := snap.MaxRowError(); !(e <= maxRowError) {
		return 0, fmt.Errorf("slot %d: routing row error %.3g > %g", snap.Slot, e, maxRowError)
	}
	alloc := publishedAllocation(inst, chk, snap)
	tol := feasibilityTol(inst, chk)
	if r := core.CheckFeasibility(inst, alloc); !r.Ok(tol) {
		return 0, fmt.Errorf("slot %d: infeasible decision %+v (tolerance %.3g)", snap.Slot, r, tol)
	}
	return core.Evaluate(inst, alloc).UFC, nil
}

// feasibilityTol is the constraint violation (servers) the solver's
// stopping rule admits. Capacity is enforced on the routing copies a, and
// the rule stops once every |λ_ij − a_ij| is within the tolerance times
// the largest front-end arrival rate; a datacenter's routed load can thus
// exceed its capacity by up to one such gap per front-end routing to it.
func feasibilityTol(inst *core.Instance, chk *core.Engine) float64 {
	var peak float64
	for _, a := range inst.Arrivals {
		peak = math.Max(peak, a)
	}
	rows := inst.Cloud.M()
	if chk.Sparse() {
		rows = 0
		for j := 0; j < inst.Cloud.N(); j++ {
			rows = max(rows, len(chk.FeasibleRows(j)))
		}
	}
	return float64(rows) * chk.Options().Tolerance * peak
}

// objectiveGap is |ufc − ref| / |ref|.
func objectiveGap(ufc, ref float64) float64 { return math.Abs(ufc-ref) / math.Abs(ref) }

func checkGap(slot int64, ufc, ref float64) error {
	if g := objectiveGap(ufc, ref); !(g <= maxObjectiveGap) {
		return fmt.Errorf("slot %d: objective gap %.4g > %g (UFC %.6g, reference %.6g)", slot, g, maxObjectiveGap, ufc, ref)
	}
	return nil
}

// lookupRecord is one lookup as the generator saw it.
type lookupRecord struct {
	fe       uint32
	answered bool
	d        distsim.Decision
}

// checkLookup validates one lookup against the snapshots the pipeline
// published, kept by slot: answered, OK, and routed to a datacenter the
// named slot's snapshot gives a positive weight.
func checkLookup(req uint64, l lookupRecord, snaps map[int64]*controlplane.Snapshot, w []float64) error {
	switch {
	case !l.answered:
		return fmt.Errorf("lookup %d: unanswered", req)
	case !l.d.OK:
		return fmt.Errorf("lookup %d: not OK", req)
	}
	snap, ok := snaps[int64(l.d.Slot)]
	if !ok {
		return fmt.Errorf("lookup %d: names slot %d, which was never published", req, l.d.Slot)
	}
	if int(l.fe) >= snap.M || int(l.d.DC) >= snap.N {
		return fmt.Errorf("lookup %d: fe %d -> dc %d outside the %dx%d snapshot", req, l.fe, l.d.DC, snap.M, snap.N)
	}
	snap.Weights(int(l.fe), w[:snap.N])
	if !(w[l.d.DC] > 0) {
		return fmt.Errorf("lookup %d: fe %d routed to dc %d, which has weight %g in slot %d", req, l.fe, l.d.DC, w[l.d.DC], l.d.Slot)
	}
	return nil
}

// checkDist requires a distributed solve to reproduce the in-process
// solve bit for bit: the same UFC and the same iteration count.
func checkDist(slot int64, res *distsim.Result, seq core.Breakdown, seqIters int) error {
	if res == nil || res.Stats == nil {
		return fmt.Errorf("slot %d: distributed solve returned no result", slot)
	}
	if math.Float64bits(res.Breakdown.UFC) != math.Float64bits(seq.UFC) {
		return fmt.Errorf("slot %d: distributed UFC %.17g != in-process %.17g", slot, res.Breakdown.UFC, seq.UFC)
	}
	if res.Stats.Iterations != seqIters {
		return fmt.Errorf("slot %d: distributed solve took %d iterations, in-process %d", slot, res.Stats.Iterations, seqIters)
	}
	return nil
}
