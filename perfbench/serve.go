package main

import (
	"time"

	"repro/internal/controlplane"
)

const (
	// nominalRPS is the offered lookup rate of phases A and B.
	nominalRPS = 5000
	// latencyLimitUs is the serving limit the rate search holds p99 to.
	latencyLimitUs = 1000
	// searchSteps bounds the rate search: doubling from nominalRPS until a
	// step fails, then bisecting between the last pass and the first fail.
	searchSteps = 12
	// drainWait bounds the wait for a step's last replies.
	drainWait = time.Second
	// serveChunks is how many A and B chunks a run alternates.
	serveChunks = 8
)

// runServeLookup serves the fleet pipeline through an in-process hub to
// two lookup clients driven by the open-loop generator. Phase A offers
// nominalRPS with the solver idle; a stepped search then finds the
// highest rate meeting the limit; phase B offers nominalRPS again while
// one goroutine re-solves fresh slots back to back.
func runServeLookup(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	fam, err := fleetFamily(cfg.seed)
	if err != nil {
		return nil, err
	}
	setups, _, _ := fleetSizes(cfg.smoke)
	var st slotStats
	var checks checkTally
	snaps := map[int64]*controlplane.Snapshot{}
	var d *deployment
	var srv *server
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		trace := cfg.rec.reserve()
		if d, err = deploy(fam, cfg.rec, trace); err != nil {
			return nil, err
		}
		s, err := d.step("bench.setup")
		if err != nil {
			d.stop()
			return nil, err
		}
		if srv, err = serve(d, cfg.seed, cfg.rec, trace); err != nil {
			d.stop()
			return nil, err
		}
		st.setup = append(st.setup, time.Since(t0).Seconds())
		st.gen = append(st.gen, ms(d.genDur))
		cfg.heap.checkpoint()
		ufc, err := d.check(s)
		checks.record(err)
		if k < setups-1 {
			srv.close()
			d.stop()
			continue
		}
		snaps[s.slot] = s.snap
		st.iterations, st.coldIterations = s.iterations, s.iterations
		if err == nil {
			st.pending = append(st.pending, gapCheck{slot: s.slot, inst: s.inst, ufc: ufc})
		}
	}
	defer d.stop()
	defer srv.close()

	// Phases A and B alternate in short chunks, so both sample the same
	// spread of host conditions over the run; their lookups are pooled.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	chunks := serveChunks
	if cfg.smoke {
		chunks = 1
	}
	// Half the time goes to phase A, whose median varies most from second
	// to second; phase B settles fast.
	chunkA, chunkB := budget/2/time.Duration(chunks), budget/5/time.Duration(chunks)
	stepDur := budget / 4 / searchSteps
	perChunk := int(nominalRPS*chunkA.Seconds()) + 1
	a, b := newPhase(chunks*perChunk), newPhase(chunks*perChunk)
	var resolved []slotSample
	for c := 0; c < chunks; c++ {
		// Phase A: the read path alone.
		st, err := a.run(srv, chunkA)
		if err != nil {
			return nil, err
		}
		if cfg.rec != nil {
			st.spans(cfg.rec, srv.dec)
		}
		a.absorb(st, snaps, &checks, srv.dec)
		// Phase B: the same offered rate beside back-to-back re-solves.
		slots, err := resolving(d, cfg.rec, func() error {
			st, err = b.run(srv, chunkB)
			return err
		})
		resolved = append(resolved, slots...)
		for _, s := range slots {
			snaps[s.slot] = s.snap
		}
		if err != nil {
			return nil, err
		}
		b.absorb(st, snaps, &checks, nil)
	}
	cfg.heap.checkpoint()

	maxRPS, err := rateSearch(srv.gen, stepDur, snaps, &checks)
	if err != nil {
		return nil, err
	}

	for k, s := range resolved {
		st.observe(s, cfg.rec != nil)
		ufc, err := d.check(s)
		checks.record(err)
		if k == 0 {
			st.iterations += s.iterations
			if err == nil {
				st.pending = append(st.pending, gapCheck{slot: s.slot, inst: s.inst, ufc: ufc})
			}
		}
	}
	st.resolveGaps(fam, &checks)
	out.checks = checks
	if cfg.rec != nil {
		serveLayers(out.layers, a)
	}

	latA, latB := a.lat, b.lat
	p50, p99 := quantile(latA, 0.5), quantile(latA, 0.99)
	p50B, p99B := quantile(latB, 0.5), quantile(latB, 0.99)
	// A burst of host stalls can push one chunk's p99 up by milliseconds;
	// the median over the chunks is the typical p99 beside a re-solve.
	p99BChunks := median(b.chunkP99)
	setup := median(st.setup)
	gapMax := maxOf(st.gaps)
	out.primaryMs = mean(latA) / 1e3

	out.named.set("setup_s", setup, "s")
	out.named.set("decide_p50_us", p50, "us")
	out.named.set("decide_p99_us", p99, "us")
	out.named.set("decide_p50_us_resolving", p50B, "us")
	out.named.set("decide_p99_us_resolving", p99B, "us")
	out.named.set("decide_p99_us_resolving_chunk_median", p99BChunks, "us")
	out.named.set("serve_max_rps", maxRPS, "1/s")
	out.named.set("objective_gap_max", gapMax, "relative")
	out.named.set("lookups_phase_a", float64(len(latA)), "count")
	out.named.set("lookups_phase_b", float64(len(latB)), "count")
	out.named.set("resolves_phase_b", float64(len(resolved)), "count")

	out.endToEnd.set("setup_s", setup, "s")
	// The end-to-end latencies are those beside a re-solve: on one CPU
	// they are set by how the solve shares the processor and repeat
	// closely from run to run. The read path alone (phase A) is reported
	// by name and explained by the traced run; its median drifts by a
	// fifth from second to second on a small virtual machine, more than a
	// bound can absorb.
	out.endToEnd.set("op_p50_ms", p50B/1e3, "ms")
	out.endToEnd.set("op_tail_ms", p99BChunks/1e3, "ms")
	out.endToEnd.set("ops_per_s", maxRPS, "1/s")
	out.layers.set("core.objective_gap_max", gapMax, "relative")

	if cfg.rec != nil {
		st.noteCache(d.p.Report())
		st.reportLayers(out.layers)
	}
	out.provenance = fam.describe
	out.provenance["generator"] = map[string]any{
		"loop": "open", "connections": len(srv.clients), "nominal_rps": nominalRPS,
		"limit_p99_us": latencyLimitUs, "chunks": chunks, "phase_a_chunk_s": chunkA.Seconds(),
		"phase_b_chunk_s": chunkB.Seconds(), "search_step_s": stepDur.Seconds(),
	}
	return out, nil
}

// rateSearch doubles the offered rate from nominalRPS until a rate fails
// the limit, then bisects between the last passing and the first failing
// rate. It returns the achieved rate of the highest passing step.
func rateSearch(g *loadGen, stepDur time.Duration, snaps map[int64]*controlplane.Snapshot, checks *checkTally) (float64, error) {
	var pass, fail, best float64
	rate := float64(nominalRPS)
	w := make([]float64, fleetSpec.N)
	for k := 0; k < searchSteps; k++ {
		// A rate fails only when a second try fails too: one host stall
		// early in the search would otherwise cap it far too low.
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			st, err := g.run(rate, stepDur, drainWait)
			if err != nil {
				return 0, err
			}
			st.check(snaps, checks, w)
			if st.passes(latencyLimitUs) {
				passed = true
				best = max(best, st.achievedRate())
			}
		}
		if passed {
			pass = rate
		} else {
			fail = rate
		}
		if fail == 0 {
			rate *= 2
		} else {
			rate = (pass + fail) / 2
		}
	}
	return best, nil
}

// resolving runs fn while one goroutine re-solves fresh slots back to
// back on d, and returns the slots solved. The goroutine always solves at
// least one slot and stops after the slot in progress when fn returns.
func resolving(d *deployment, rec *recorder, fn func() error) ([]slotSample, error) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	var slots []slotSample
	go func() {
		for {
			d.trace = rec.reserve()
			s, err := d.step("bench.resolve")
			if err != nil {
				done <- err
				return
			}
			slots = append(slots, s)
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	err := fn()
	close(stop)
	if solveErr := <-done; solveErr != nil {
		return slots, solveErr
	}
	return slots, err
}

// serveLayers fills the serving path's per-layer metrics from phase A.
func serveLayers(l metricSet, a *phase) {
	n := float64(len(a.call))
	l.set("controlplane.decide_ns", mean(a.decideNs), "ns")
	l.set("distsim.lookup_call_ns", mean(a.call), "ns")
	l.set("distsim.unattributed_us", quantile(a.lat, 0.5)-(median(a.call)+median(a.decideNs))/1e3, "us")
	l.set("distsim.flushes_per_lookup", float64(a.wire.flushes)/n, "count")
	l.set("distsim.avg_batch", float64(a.wire.records)/float64(a.wire.flushes), "count")
	l.set("distsim.bytes_per_lookup", float64(a.wire.bytes)/n, "B")
	l.set("loadgen.lag_p50_us", quantile(a.lag, 0.5), "us")
	l.set("loadgen.lag_p99_us", quantile(a.lag, 0.99), "us")
	l.set("loadgen.decide_p50_us", quantile(a.lat, 0.5), "us")
	l.set("loadgen.decide_p99_us", quantile(a.lat, 0.99), "us")
	l.set("loadgen.decide_p999_us", quantile(a.lat, 0.999), "us")
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
