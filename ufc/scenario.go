package ufc

import (
	"context"

	"repro/internal/experiments"
)

// Evaluation-scenario types, re-exported so downstream users can reproduce
// or extend the paper's experiments programmatically.
type (
	// ScenarioConfig parameterizes the paper scenario.
	ScenarioConfig = experiments.Config
	// Scenario is the materialized evaluation environment.
	Scenario = experiments.Scenario
	// WeekResult holds per-hour strategy outcomes.
	WeekResult = experiments.WeekResult
	// WeekComparison is the three-strategy week run behind Figs. 4–8.
	WeekComparison = experiments.WeekComparison
	// SweepResult is a Fig. 9 / Fig. 10 parameter sweep.
	SweepResult = experiments.SweepResult
)

// DefaultScenarioConfig returns the paper's evaluation setting (4
// datacenters of 1.7–2.3 × 10⁴ servers, 10 front-ends, one week of hourly
// traces, p0 = 80 $/MWh, 25 $/ton tax, w = 10).
func DefaultScenarioConfig() ScenarioConfig { return experiments.DefaultConfig() }

// NewScenario materializes the paper scenario (topology plus traces).
func NewScenario(cfg ScenarioConfig) (*Scenario, error) { return experiments.NewScenario(cfg) }

// RunWeekComparison solves every hour under Hybrid, GridOnly and
// FuelCellOnly — the computation behind the paper's Figs. 4–8 and 11.
// ctx cancellation aborts outstanding hourly solves between iterations.
func RunWeekComparison(ctx context.Context, cfg ScenarioConfig, opts Options) (*WeekComparison, error) {
	return experiments.RunWeekComparison(ctx, cfg, opts)
}

// SweepFuelCellPrice reproduces Fig. 9: average UFC improvement and
// fuel-cell utilization as the fuel-cell price varies. A nil price grid
// uses the default.
func SweepFuelCellPrice(ctx context.Context, cfg ScenarioConfig, opts Options, prices []float64) (*SweepResult, error) {
	return experiments.RunFigNine(ctx, cfg, opts, prices)
}

// SweepCarbonTax reproduces Fig. 10: the same metrics as the carbon tax
// varies. A nil tax grid uses the default.
func SweepCarbonTax(ctx context.Context, cfg ScenarioConfig, opts Options, taxes []float64) (*SweepResult, error) {
	return experiments.RunFigTen(ctx, cfg, opts, taxes)
}
