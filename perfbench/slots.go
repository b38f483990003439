package main

import (
	"fmt"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// deployment is one control-plane pipeline over a family's slots, driven
// by RunSlot from a single goroutine (never Run).
type deployment struct {
	fam    *family
	instAt func(int64) *core.Instance
	opts   core.Options
	p      *controlplane.Pipeline
	probe  *telemetry.SolverProbe // traced runs only
	rec    *recorder
	chk    *core.Engine // checker engine, built on first use

	genDur time.Duration // scenario or topology generation

	// Set around each RunSlot by step; read by the Instance callback,
	// which runs inside RunSlot on the same goroutine.
	trace, parent int64
	last          *core.Instance
	instDur       time.Duration
}

// deploy generates the family's inputs and builds a warm-starting
// pipeline over them (no slot solved yet).
func deploy(fam *family, rec *recorder, trace int64) (*deployment, error) {
	d := &deployment{fam: fam, rec: rec, trace: trace}
	t0 := time.Now()
	instAt, opts, err := fam.build()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	d.genDur = t1.Sub(t0)
	rec.add(0, trace, 0, "experiments.build", t0, t1)
	d.instAt, d.opts = instAt, opts
	if rec != nil {
		d.probe = telemetry.NewSolverProbe()
		d.opts.Probe = d.probe
	}
	t2 := time.Now()
	d.p, err = controlplane.New(controlplane.Config{
		Instance:  d.instance,
		Solver:    d.opts,
		WarmStart: true,
		CacheSize: cacheSize,
	})
	rec.add(0, trace, 0, "controlplane.New", t2, time.Now())
	if err != nil {
		return nil, err
	}
	return d, nil
}

// instance is the pipeline's Instance callback: it generates slot t,
// records the generation as an experiments span and keeps the instance
// for the checks.
func (d *deployment) instance(t int64) *core.Instance {
	if d.fam.hours > 0 && t >= d.fam.hours {
		panic(fmt.Sprintf("slot %d beyond the %d-slot horizon", t, d.fam.hours))
	}
	t0 := time.Now()
	inst := d.instAt(t)
	t1 := time.Now()
	d.instDur = t1.Sub(t0)
	d.rec.add(0, d.trace, d.parent, "experiments.instance", t0, t1)
	d.last = inst
	return inst
}

func (d *deployment) stop() {
	if err := d.p.Stop(); err != nil {
		panic(fmt.Sprintf("pipeline stop: %v", err)) // RunSlot-only pipelines never fail in Stop
	}
	if d.chk != nil {
		d.chk.Close()
	}
}

// slotSample is one RunSlot as measured from outside.
type slotSample struct {
	slot       int64
	dur        time.Duration // RunSlot wall time
	solveNs    uint64        // Report.SolveNanos delta
	instDur    time.Duration // instance generation inside RunSlot
	iterations uint64
	phaseNs    [3]uint64 // λ, datacenter, correction (traced runs)
	inst       *core.Instance
	snap       *controlplane.Snapshot
}

var phases = [3]telemetry.SolverPhase{telemetry.SolverPhaseLambda, telemetry.SolverPhaseDatacenter, telemetry.SolverPhaseCorrection}

// step runs one slot. root names the operation's root span ("bench.op"
// for measured slots, "bench.setup" for a deployment's cold first slot).
func (d *deployment) step(root string) (slotSample, error) {
	var ph0 [3]uint64
	for k, ph := range phases {
		ph0[k] = d.probe.PhaseNanos(ph)
	}
	r0 := d.p.Report()
	rootID := d.rec.reserve()
	callID := d.rec.reserve()
	d.parent = callID
	t0 := time.Now()
	err := d.p.RunSlot()
	t1 := time.Now()
	if err != nil {
		return slotSample{}, err
	}
	r1 := d.p.Report()
	s := slotSample{
		slot:       r1.Slot,
		dur:        t1.Sub(t0),
		solveNs:    r1.SolveNanos - r0.SolveNanos,
		instDur:    d.instDur,
		iterations: (r1.WarmIterations + r1.ColdIterations) - (r0.WarmIterations + r0.ColdIterations),
		inst:       d.last,
		snap:       d.p.Router().Current(),
	}
	for k, ph := range phases {
		s.phaseNs[k] = d.probe.PhaseNanos(ph) - ph0[k]
	}
	if d.rec != nil {
		trace := d.trace
		d.rec.add(rootID, trace, 0, root, t0, t1)
		d.rec.add(callID, trace, rootID, "controlplane.RunSlot", t0, t1)
		// The solve runs after the instance is generated and ends just
		// before the snapshot is built and published.
		end := d.rec.since(t1)
		d.rec.addNanos(0, trace, callID, "core.SolveState", end-int64(s.solveNs), end, true)
	}
	return s, nil
}

// check validates a slot's published decision and returns its UFC.
func (d *deployment) check(s slotSample) (float64, error) {
	if d.chk == nil {
		o := d.opts
		o.Probe = nil
		chk, err := core.NewEngine(s.inst, o)
		if err != nil {
			return 0, err
		}
		d.chk = chk
	} else if err := d.chk.Reset(s.inst); err != nil {
		return 0, err
	}
	return checkSlot(s.inst, d.chk, s.snap)
}

// gapCheck is a decision kept for the reference comparison, which runs
// after the measured loop.
type gapCheck struct {
	slot int64
	inst *core.Instance
	ufc  float64
}

// slotStats accumulates a slot workload's measurements.
type slotStats struct {
	setup      []float64 // s
	gen        []float64 // ms, scenario/topology generation per deployment
	warm       []float64 // ms per measured RunSlot
	fixedWarm  []float64 // the warm slots every run of a seed measures
	overheadUs []float64 // RunSlot − solve − instance generation
	instUs     []float64
	phaseMs    [3][]float64
	residualMs []float64
	iterUs     []float64
	// Counts over the fixed part of the run (repeat exactly per seed).
	iterations, coldIterations uint64
	// Memo-cache outcomes over every retired deployment.
	cacheHits, cacheLookups uint64
	pending                 []gapCheck
	gaps                    []float64
}

// observe records a measured warm slot.
func (st *slotStats) observe(s slotSample, traced bool) {
	st.warm = append(st.warm, ms(s.dur))
	st.overheadUs = append(st.overheadUs, float64(s.dur-time.Duration(s.solveNs)-s.instDur)/1e3)
	st.instUs = append(st.instUs, float64(s.instDur)/1e3)
	if traced && s.iterations > 0 {
		var phaseSum uint64
		for k := range s.phaseNs {
			st.phaseMs[k] = append(st.phaseMs[k], float64(s.phaseNs[k])/1e6)
			phaseSum += s.phaseNs[k]
		}
		st.residualMs = append(st.residualMs, (float64(s.solveNs)-float64(phaseSum))/1e6)
		st.iterUs = append(st.iterUs, float64(s.solveNs)/float64(s.iterations)/1e3)
	}
}

// resolveGaps runs the reference solves for the kept decisions and checks
// each gap. A slot whose reference cannot be computed fails its check.
func (st *slotStats) resolveGaps(fam *family, checks *checkTally) {
	for _, g := range st.pending {
		ref, err := fam.reference(g.inst)
		if err != nil {
			checks.record(fmt.Errorf("slot %d: %w", g.slot, err))
			continue
		}
		st.gaps = append(st.gaps, objectiveGap(g.ufc, ref))
		checks.record(checkGap(g.slot, g.ufc, ref))
	}
}

// report fills the outcome's metrics from a slot workload's statistics.
// tailPct is the tail percentile: the highest the workload's slot count
// supports with at least ten slots beyond it.
func (st *slotStats) report(out *outcome, traced bool, tailPct int) {
	p50, tail := quantile(st.warm, 0.5), quantile(st.warm, float64(tailPct)/100)
	perSec := float64(len(st.warm)) / (sum(st.warm) / 1e3)
	gapMax := maxOf(st.gaps)
	setup := median(st.setup)
	out.primaryMs = mean(st.fixedWarm)

	out.named.set("setup_s", setup, "s")
	out.named.set("slots_per_s", perSec, "1/s")
	out.named.set("slot_solve_ms_p50", p50, "ms")
	out.named.set(fmt.Sprintf("slot_solve_ms_p%d", tailPct), tail, "ms")
	out.named.set("objective_gap_max", gapMax, "relative")
	out.named.set("warm_slots", float64(len(st.warm)), "count")
	out.layers.set("core.objective_gap_max", gapMax, "relative")

	out.endToEnd.set("setup_s", setup, "s")
	out.endToEnd.set("op_p50_ms", p50, "ms")
	out.endToEnd.set("op_tail_ms", tail, "ms")
	out.endToEnd.set("ops_per_s", perSec, "1/s")

	if traced {
		st.reportLayers(out.layers)
	}
}

// reportLayers fills the core and control-plane per-layer metrics of the
// measured slots (traced runs, where the solver probe is attached).
func (st *slotStats) reportLayers(l metricSet) {
	l.set("experiments.gen_ms", median(st.gen), "ms")
	l.set("experiments.instance_us", mean(st.instUs), "us")
	l.set("core.iterations", float64(st.iterations), "count")
	l.set("core.cold_iterations", float64(st.coldIterations), "count")
	l.set("core.iter_us", mean(st.iterUs), "us")
	l.set("core.lambda_ms", mean(st.phaseMs[0]), "ms")
	l.set("core.datacenter_ms", mean(st.phaseMs[1]), "ms")
	l.set("core.correction_ms", mean(st.phaseMs[2]), "ms")
	l.set("core.residual_ms", mean(st.residualMs), "ms")
	l.set("controlplane.slot_overhead_us", mean(st.overheadUs), "us")
	l.set("controlplane.cache_hit_ratio", float64(st.cacheHits)/float64(max(st.cacheLookups, 1)), "ratio")
}

// noteCache adds a deployment's memo-cache outcomes.
func (st *slotStats) noteCache(r controlplane.Report) {
	st.cacheHits += r.CacheHits
	st.cacheLookups += r.CacheHits + r.CacheMisses
}

// runPaperWeek replays whole weeks of the paper scenario, one fresh
// scenario and pipeline per week: slot 0 is solved cold as part of the
// week's set-up, slots 1..167 warm. The first refWeeks weeks always run
// and their every refStride-th slot is checked against the QP optimum,
// so the counts and the gap repeat exactly for a seed.
func runPaperWeek(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	refWeeks, refStride := 4, int64(8)
	if cfg.smoke {
		refWeeks, refStride = 1, 56
	}
	var st slotStats
	var checks checkTally
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var fam *family
	for w := 0; w < refWeeks || time.Now().Before(deadline); w++ {
		fam = paperFamily(weekSeed(cfg.seed, w))
		fixed := w < refWeeks
		if err := runSlots(fam, cfg, fam.hours-1, fixed, refStride, &st, &checks); err != nil {
			return nil, err
		}
	}
	st.resolveGaps(fam, &checks)
	out.checks = checks
	st.report(out, cfg.rec != nil, 90)
	out.provenance = fam.describe
	out.provenance["weeks"] = len(st.setup)
	out.provenance["scenario_seeds"] = fmt.Sprintf("weekSeed(%d, w) for w = 0..%d", cfg.seed, len(st.setup)-1)
	return out, nil
}

// runFleetDay deploys the fleet pipeline setups times (each deployment's
// generation, engine build and cold slot 0 is one set-up sample), then
// runs distinct warm slots 1, 2, 3, ... on the last deployment for the
// measuring time. Slots 1..fixedSlots always run; the first refSlots of
// them are checked against the tight reference.
func runFleetDay(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	fam, err := fleetFamily(cfg.seed)
	if err != nil {
		return nil, err
	}
	var st slotStats
	var checks checkTally
	if err := runFleetSlots(fam, cfg, &st, &checks); err != nil {
		return nil, err
	}
	st.resolveGaps(fam, &checks)
	out.checks = checks
	st.report(out, cfg.rec != nil, 75)
	out.provenance = fam.describe
	out.provenance["warm_slots"] = len(st.warm)
	return out, nil
}

// fleet slot-run sizes.
func fleetSizes(smoke bool) (setups int, fixedSlots, refSlots int64) {
	if smoke {
		return 1, 2, 1
	}
	return 3, 8, 1
}

// runFleetSlots runs the fleet set-ups and the measured warm slots.
func runFleetSlots(fam *family, cfg runConfig, st *slotStats, checks *checkTally) error {
	setups, fixedSlots, refSlots := fleetSizes(cfg.smoke)
	var d *deployment
	for k := 0; k < setups; k++ {
		var err error
		if d, err = setupDeployment(fam, cfg, st, checks); err != nil {
			return err
		}
		if k < setups-1 {
			d.stop()
		}
	}
	defer d.stop()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for t := int64(1); t <= fixedSlots || time.Now().Before(deadline); t++ {
		if err := measureSlot(d, cfg, t <= fixedSlots, t <= refSlots, st, checks); err != nil {
			return err
		}
		if t == fixedSlots {
			// The memo cache grows by one table per slot, so the heap is
			// taken at the same slot in every run.
			cfg.heap.checkpoint()
		}
	}
	st.noteCache(d.p.Report())
	return nil
}

// runSlots is one bounded deployment: set-up (with the cold slot 0) and
// slots 1..n measured warm. Slots at multiples of refStride are kept for
// the reference check when fixed.
func runSlots(fam *family, cfg runConfig, n int64, fixed bool, refStride int64, st *slotStats, checks *checkTally) error {
	if !fixed {
		// The heap is read on the deployments every run of a seed makes,
		// so the peak does not depend on how many more the time allowed.
		cfg.heap = nil
	}
	d, err := setupDeployment(fam, cfg, st, checks)
	if err != nil {
		return err
	}
	defer d.stop()
	for t := int64(1); t <= n; t++ {
		if err := measureSlot(d, cfg, fixed, fixed && t%refStride == 0, st, checks); err != nil {
			return err
		}
	}
	cfg.heap.checkpoint()
	st.noteCache(d.p.Report())
	return nil
}

// setupDeployment deploys the family and solves the cold slot 0; the
// time from the start to the published slot 0 is one set-up sample.
func setupDeployment(fam *family, cfg runConfig, st *slotStats, checks *checkTally) (*deployment, error) {
	t0 := time.Now()
	trace := cfg.rec.reserve()
	d, err := deploy(fam, cfg.rec, trace)
	if err != nil {
		return nil, err
	}
	s, err := d.step("bench.setup")
	if err != nil {
		d.stop()
		return nil, err
	}
	st.setup = append(st.setup, time.Since(t0).Seconds())
	st.gen = append(st.gen, ms(d.genDur))
	cfg.heap.checkpoint()
	if len(st.setup) == 1 {
		st.coldIterations += s.iterations
		st.iterations += s.iterations
	}
	_, err = d.check(s)
	checks.record(err)
	return d, nil
}

// measureSlot runs, times and checks one warm slot.
func measureSlot(d *deployment, cfg runConfig, fixed, ref bool, st *slotStats, checks *checkTally) error {
	d.trace = cfg.rec.reserve()
	s, err := d.step(primaryOp)
	if err != nil {
		return err
	}
	st.observe(s, cfg.rec != nil)
	if fixed {
		st.iterations += s.iterations
		st.fixedWarm = append(st.fixedWarm, ms(s.dur))
	}
	ufc, err := d.check(s)
	checks.record(err)
	if err == nil && ref {
		st.pending = append(st.pending, gapCheck{slot: s.slot, inst: s.inst, ufc: ufc})
	}
	return nil
}
