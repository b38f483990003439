package main

import (
	"errors"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
)

// The fleet every workload but paper_week runs on: 20 datacenters and 200
// front-ends in 4 regions, routed only within a region (the sparsity
// cutoff keeps 1000 of the 4000 pairs). Like the paper's sites, the fleet
// and its base prices and demand are fixed; the seed picks which day of
// its rolling trace a run solves, so every seed sees distinct slots of the
// same fleet, starting at the same hour of the daily demand cycle.
var fleetSpec = experiments.Topology{N: 20, M: 200, Regions: 4}

const (
	fleetGeometrySeed = 7
	fleetTraceSeed    = 7
	// fleetHoursPerSeed spaces the seeds' start hours so that no two
	// seeds' runs share a slot. It is a whole number of days: a run's
	// cold slot 0 and its warm slots then meet the same phase of the
	// demand and price cycles whatever the seed, which otherwise moved
	// the cold set-up solve by a third between seeds.
	fleetHoursPerSeed = 24 * 4167
	// tightTolerance is the fleet reference: a core solve this tight
	// agrees with the optimum far below the checked gaps.
	tightTolerance     = 1e-6
	tightMaxIterations = 20000
	// referenceResidual is the loosest residual a capped reference solve
	// may stop at: a tenth of the slot solves' tolerance.
	referenceResidual = core.DefaultTolerance / 10
	// maxIterations is the slot solves' budget. At the solver's default
	// of 2000 an occasional warm paper slot stops just short of the
	// tolerance; with this budget it converges and its full cost is
	// measured, and a slot that still stops unconverged fails its check.
	maxIterations = 20000
	// cacheSize is the memo cache of every pipeline: large enough that
	// repeated inputs would hit, so its digest cost is always paid.
	cacheSize = 256
)

// family is a source of slot instances: how they are generated, how
// they are solved, and the reference optimum a decision is checked
// against.
type family struct {
	// build generates the topology or scenario and returns slot t's
	// instance generator and the solver options.
	build func() (func(t int64) *core.Instance, core.Options, error)
	// hours is the number of slots one deployment covers (0: unbounded).
	hours int64
	// reference returns the optimum UFC of inst.
	reference func(inst *core.Instance) (float64, error)
	// describe records the inputs in the result's provenance block.
	describe map[string]any
}

// weekSeed maps the benchmark seed and a week index to a scenario seed:
// each week of a run is a distinct scenario (never the scenario default
// seed, which a zero would select).
func weekSeed(seed int64, week int) int64 {
	return seed*1_000_003 + int64(week)*7919 + 1
}

// paperFamily is the paper's scenario: four datacenters, ten front-ends,
// one week of hourly slots, solved dense at the default tolerance and
// checked against the centralized QP optimum.
func paperFamily(scenarioSeed int64) *family {
	opts := core.Options{Workers: 1, Tolerance: core.DefaultTolerance, MaxIterations: maxIterations}
	return &family{
		build: func() (func(int64) *core.Instance, core.Options, error) {
			sc, err := experiments.NewScenario(experiments.Config{Seed: scenarioSeed})
			if err != nil {
				return nil, opts, err
			}
			return func(t int64) *core.Instance { return sc.InstanceAt(int(t)) }, opts, nil
		},
		hours: 168,
		// The QP is the independent reference; on the few slots where its
		// active-set iterations run out, a tight core solve stands in.
		reference: func(inst *core.Instance) (float64, error) {
			if _, bd, err := baseline.SolveQP(inst, core.Hybrid); err == nil {
				return bd.UFC, nil
			}
			return tightSolve(inst, opts)
		},
		describe: map[string]any{
			"instance":  "experiments.NewScenario scale 1 (4 DCs x 10 FEs), hybrid",
			"tolerance": opts.Tolerance,
			"cutoff":    0.0,
			"reference": fmt.Sprintf("baseline.SolveQP, else core.Solve at tolerance %g", tightTolerance),
		},
	}
}

// fleetFamily is the synthetic fleet with seed-driven slot inputs: slot t
// of a run is SlotInstance(fleetTraceSeed, start+t) with start =
// seed·fleetHoursPerSeed, so hours are never wrapped or repeated; solved
// under the region sparsity cutoff at the default tolerance and checked
// against a core solve at tightTolerance.
func fleetFamily(seed int64) (*family, error) {
	st, err := experiments.NewSyntheticTopology(fleetSpec, fleetGeometrySeed)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Workers: 1, Tolerance: core.DefaultTolerance, MaxIterations: maxIterations, SparsityCutoff: st.CutoffSec}
	start := seed * fleetHoursPerSeed
	return &family{
		build: func() (func(int64) *core.Instance, core.Options, error) {
			st, err := experiments.NewSyntheticTopology(fleetSpec, fleetGeometrySeed)
			if err != nil {
				return nil, opts, err
			}
			o := opts
			o.SparsityCutoff = st.CutoffSec
			return func(t int64) *core.Instance { return st.SlotInstance(fleetTraceSeed, start+t) }, o, nil
		},
		reference: func(inst *core.Instance) (float64, error) { return tightSolve(inst, opts) },
		describe: map[string]any{
			"instance":  fmt.Sprintf("experiments.SlotInstance(%d, %d+t) on NewSyntheticTopology(%s, %d), hybrid", fleetTraceSeed, start, fleetSpec, fleetGeometrySeed),
			"tolerance": opts.Tolerance,
			"cutoff":    st.CutoffSec,
			"reference": fmt.Sprintf("core.Solve at tolerance %g", tightTolerance),
		},
	}, nil
}

// tightSolve returns the UFC of a core solve at tightTolerance. A solve
// that stops at the iteration cap still serves when its residual is
// within referenceResidual; on an occasional paper slot ADM-G creeps
// toward 1e-6 for longer than the cap.
func tightSolve(inst *core.Instance, opts core.Options) (float64, error) {
	opts.Tolerance, opts.MaxIterations = tightTolerance, tightMaxIterations
	_, bd, stats, err := core.Solve(inst, opts)
	if err != nil && !errors.Is(err, core.ErrNotConverged) {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	if stats.FinalResidual > referenceResidual {
		return 0, fmt.Errorf("reference solve: residual %.3g after %d iterations", stats.FinalResidual, stats.Iterations)
	}
	return bd.UFC, nil
}
