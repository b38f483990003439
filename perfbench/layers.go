package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
)

// layerSweep completes a traced run's per-layer metrics. The public step
// calls of core are always timed here; every other layer's metrics come
// from the workload's own traced pass where it exercises that layer, and
// otherwise from a short pass of that layer on the workload's instance
// family, so every traced run reports every per-layer metric.
func layerSweep(fam *family, cfg runConfig, out *outcome) error {
	l := out.layers
	if err := coreSteps(fam, cfg.smoke, l); err != nil {
		return fmt.Errorf("core steps: %w", err)
	}
	probeRec := newRecorder() // the probes' spans are not the workload's
	if _, ok := l["controlplane.slot_overhead_us"]; !ok {
		var st slotStats
		var checks checkTally
		c := runConfig{seed: cfg.seed, rec: probeRec, smoke: true}
		if err := runSlots(fam, c, 2, true, 1<<62, &st, &checks); err != nil {
			return fmt.Errorf("slot probe: %w", err)
		}
		out.checks.merge(checks)
		side := metricSet{}
		st.reportLayers(side)
		l.fill(side)
	}
	if _, ok := l["distsim.lookup_call_ns"]; !ok {
		if err := serveProbe(fam, cfg, probeRec, out); err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
	}
	if _, ok := l["distsim.iter_ms"]; !ok {
		// Per-iteration figures need no convergence: a capped solve is
		// enough, and is still checked bit for bit against core.
		s, err := distSolve(fam, 0, nil, nil, probeIterations)
		if err != nil {
			return fmt.Errorf("distributed probe: %w", err)
		}
		seq, seqIters, seqDur, err := seqSolve(s, nil)
		if err != nil {
			return err
		}
		out.checks.record(checkDist(s.slot, s.res, seq, seqIters))
		it := float64(s.res.Stats.Iterations)
		side := metricSet{}
		distLayers(side, ms(s.solve)/it, ms(seqDur)/float64(seqIters), s, it)
		l.fill(side)
	}
	return nil
}

// probeIterations caps the layer sweep's distributed solve.
const probeIterations = 60

// serveProbe serves one deployment of the family for a short phase-A
// pass at the nominal rate.
func serveProbe(fam *family, cfg runConfig, rec *recorder, out *outcome) error {
	d, err := deploy(fam, rec, 0)
	if err != nil {
		return err
	}
	defer d.stop()
	s, err := d.step("bench.setup")
	if err != nil {
		return err
	}
	srv, err := serve(d, cfg.seed, rec, 0)
	if err != nil {
		return err
	}
	defer srv.close()
	dur := time.Second
	if cfg.smoke {
		dur = 200 * time.Millisecond
	}
	a := newPhase(int(nominalRPS*dur.Seconds()) + 1)
	st, err := a.run(srv, dur)
	if err != nil {
		return err
	}
	a.absorb(st, map[int64]*controlplane.Snapshot{s.slot: s.snap}, &out.checks, srv.dec)
	side := metricSet{}
	serveLayers(side, a)
	out.layers.fill(side)
	return nil
}

// coreSteps times core's public step calls on converged states of the
// family's sampled slots (1 and 2): the λ-step (including the qp simplex
// projection), the a-step (including the qp water-fill) and the μ/ν
// steps. It also counts Iterate's allocations and measures Iterate at
// two workers against one.
func coreSteps(fam *family, smoke bool, l metricSet) error {
	instAt, opts, err := fam.build()
	if err != nil {
		return err
	}
	slots := []int64{1, 2}
	budget := 100 * time.Millisecond
	if smoke {
		slots, budget = slots[:1], 10*time.Millisecond
	}
	var lamNs, aNs, muNuNs, allocs, speedup []float64
	for _, t := range slots {
		inst := instAt(t)
		eng, err := core.NewEngine(inst, opts)
		if err != nil {
			return err
		}
		state := core.NewState(inst.Cloud.M(), inst.Cloud.N())
		if _, _, _, err := eng.SolveState(state); err != nil {
			eng.Close()
			return fmt.Errorf("slot %d: %w", t, err)
		}
		lam, a, mn, err := timeSteps(eng, state, budget)
		if err != nil {
			eng.Close()
			return err
		}
		lamNs, aNs, muNuNs = append(lamNs, lam), append(aNs, a), append(muNuNs, mn)
		al, err := iterateAllocs(eng, state)
		if err != nil {
			eng.Close()
			return err
		}
		one, err := timeIterate(eng, state, budget)
		eng.Close()
		if err != nil {
			return err
		}
		allocs = append(allocs, al)

		o2 := opts
		o2.Workers = 2
		eng2, err := core.NewEngine(inst, o2)
		if err != nil {
			return err
		}
		two, err := timeIterate(eng2, state, budget)
		eng2.Close()
		if err != nil {
			return err
		}
		speedup = append(speedup, one/two)
	}
	l.set("core.lambda_step_ns", mean(lamNs), "ns")
	l.set("core.a_step_ns", mean(aNs), "ns")
	l.set("core.mu_nu_step_ns", mean(muNuNs), "ns")
	l.set("core.allocs_per_iter", maxOf(allocs), "count")
	l.set("core.workers2_speedup", mean(speedup), "x")
	return nil
}

// timeSteps returns the mean ns per call of the λ-step, the a-step and a
// μ-step plus ν-step pair over every front-end and datacenter of the
// converged state, each repeated until the budget is spent. The compact
// forms are the ones the distributed agents call; on a dense engine they
// are the full-row steps.
func timeSteps(eng *core.Engine, s *core.State, budget time.Duration) (lam, a, muNu float64, err error) {
	m, n := len(s.Lambda), len(s.Mu)
	ws := eng.NewStepWorkspace()
	cols := func(i int) []int32 { return eng.FeasibleCols(i) }
	rows := func(j int) []int32 { return eng.FeasibleRows(j) }
	// Compact views of the state, built once outside the timed loops.
	type row struct{ a, phi, dst []float64 }
	lamRows := make([]row, m)
	for i := 0; i < m; i++ {
		lamRows[i] = gatherRow(s.A[i], s.Varphi[i], cols(i))
	}
	type col struct {
		lam, phi, dst []float64
		sumA          float64
	}
	aCols := make([]col, n)
	for j := 0; j < n; j++ {
		idx := rows(j)
		c := col{}
		if idx == nil {
			for i := 0; i < m; i++ {
				c.lam = append(c.lam, s.Lambda[i][j])
				c.phi = append(c.phi, s.Varphi[i][j])
				c.sumA += s.A[i][j]
			}
		} else {
			for _, i := range idx {
				c.lam = append(c.lam, s.Lambda[i][j])
				c.phi = append(c.phi, s.Varphi[i][j])
				c.sumA += s.A[i][j]
			}
		}
		c.dst = make([]float64, len(c.lam))
		aCols[j] = c
	}

	calls, start := 0, time.Now()
	for time.Since(start) < budget {
		for i := 0; i < m; i++ {
			r := lamRows[i]
			if err := eng.LambdaStepCompactInto(ws, i, r.a, r.phi, r.dst); err != nil {
				return 0, 0, 0, err
			}
		}
		calls += m
	}
	lam = float64(time.Since(start)) / float64(calls)

	calls, start = 0, time.Now()
	for time.Since(start) < budget {
		for j := 0; j < n; j++ {
			c := aCols[j]
			if err := eng.AStepCompactInto(ws, j, c.lam, c.phi, s.Mu[j], s.Nu[j], s.Phi[j], c.dst); err != nil {
				return 0, 0, 0, err
			}
		}
		calls += n
	}
	a = float64(time.Since(start)) / float64(calls)

	var sink float64
	calls, start = 0, time.Now()
	for time.Since(start) < budget {
		for j := 0; j < n; j++ {
			mu := eng.MuStep(j, aCols[j].sumA, s.Nu[j], s.Phi[j])
			sink += eng.NuStep(j, aCols[j].sumA, mu, s.Phi[j])
		}
		calls += n
	}
	muNu = float64(time.Since(start)) / float64(calls)
	stepSink = sink
	return lam, a, muNu, nil
}

// stepSink keeps the μ/ν results live so the timed calls are not elided.
var stepSink float64

// gatherRow builds a front-end's compact a and φ rows (the full rows when
// idx is nil) and an output buffer of the same length.
func gatherRow(aRow, phiRow []float64, idx []int32) struct{ a, phi, dst []float64 } {
	var r struct{ a, phi, dst []float64 }
	if idx == nil {
		r.a = append([]float64(nil), aRow...)
		r.phi = append([]float64(nil), phiRow...)
	} else {
		for _, j := range idx {
			r.a = append(r.a, aRow[j])
			r.phi = append(r.phi, phiRow[j])
		}
	}
	r.dst = make([]float64, len(r.a))
	return r
}

// iterateAllocs counts heap allocations per steady-state Iterate.
func iterateAllocs(eng *core.Engine, s *core.State) (float64, error) {
	const iters = 20
	if err := eng.Iterate(s); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < iters; k++ {
		if err := eng.Iterate(s); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / iters, nil
}

// timeIterate returns the mean ns per Iterate on a copy of s.
func timeIterate(eng *core.Engine, s *core.State, budget time.Duration) (float64, error) {
	c := cloneState(s)
	iters, start := 0, time.Now()
	for time.Since(start) < budget || iters < 3 {
		if err := eng.Iterate(c); err != nil {
			return 0, err
		}
		iters++
	}
	return float64(time.Since(start)) / float64(iters), nil
}

func cloneState(s *core.State) *core.State {
	c := core.NewState(len(s.Lambda), len(s.Mu))
	for i := range s.Lambda {
		copy(c.Lambda[i], s.Lambda[i])
		copy(c.A[i], s.A[i])
		copy(c.Varphi[i], s.Varphi[i])
	}
	copy(c.Mu, s.Mu)
	copy(c.Nu, s.Nu)
	copy(c.Phi, s.Phi)
	return c
}
