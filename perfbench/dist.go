package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/telemetry"
)

// distSample is one cold distributed solve as measured from outside.
type distSample struct {
	slot     int64
	setup    time.Duration // generation, listen, dials and the solve
	solve    time.Duration // both RunAgents calls, start to last return
	genDur   time.Duration
	res      *distsim.Result
	inst     *core.Instance
	opts     core.Options
	hub      distsim.TransportStats // hub counters over the solve alone
	nodeFlsh uint64                 // node-side flushes over the solve
}

// distSolve deploys a flat loopback hub with two node connections (every
// front-end agent on one; the datacenter agents and the coordinator on
// the other) and solves slot t cold with the plain protocol. A positive
// maxIters caps the solve (the layer sweep's per-iteration probe).
func distSolve(fam *family, t int64, rec *recorder, heap *heapTracker, maxIters int) (*distSample, error) {
	ctx := context.Background()
	trace, setupTrace := rec.reserve(), rec.reserve()
	setupID := rec.reserve()
	t0 := time.Now()
	instAt, opts, err := fam.build()
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	rec.add(0, setupTrace, setupID, "experiments.build", t0, t1)
	if maxIters > 0 {
		opts.MaxIterations = maxIters
	}
	inst := instAt(t)
	t2 := time.Now()
	rec.add(0, setupTrace, setupID, "experiments.instance", t1, t2)

	hub, err := distsim.Listen(ctx, distsim.ListenConfig{Addr: "127.0.0.1:0"})
	t3 := time.Now()
	rec.add(0, setupTrace, setupID, "distsim.Listen", t2, t3)
	if err != nil {
		return nil, err
	}
	defer func() { _ = hub.Close() }() // teardown after the solve has returned
	m, n := inst.Cloud.M(), inst.Cloud.N()
	groups := [2][]string{}
	for i := 0; i < m; i++ {
		groups[0] = append(groups[0], fmt.Sprintf("fe-%d", i))
	}
	for j := 0; j < n; j++ {
		groups[1] = append(groups[1], fmt.Sprintf("dc-%d", j))
	}
	groups[1] = append(groups[1], "coord")
	var nodes [2]*distsim.TCPNode
	for k, ids := range groups {
		d0 := time.Now()
		ep, err := distsim.Dial(ctx, distsim.DialConfig{Addr: hub.Addr(), AgentIDs: ids, Buffer: 4096})
		rec.add(0, setupTrace, setupID, "distsim.Dial", d0, time.Now())
		if err != nil {
			return nil, err
		}
		nodes[k] = ep.(*distsim.TCPNode)
		defer func(nd *distsim.TCPNode) { _ = nd.Close() }(nodes[k]) // teardown after the solve has returned
	}
	for k := range nodes {
		peer := groups[1-k]
		if err := awaitRoute(nodes[k], nodes[1-k], groups[k][0], peer[len(peer)-1]); err != nil {
			return nil, err
		}
	}

	ro := distsim.RunOptions{Solver: opts, Timeout: time.Minute}
	h0 := hub.Stats()
	var nodeFlushes0 uint64
	for _, nd := range nodes {
		nodeFlushes0 += nd.Stats().Flushes
	}
	opID := rec.reserve()
	s0 := time.Now()
	feDone := make(chan error, 1)
	var feEnd time.Time
	go func() {
		_, err := distsim.RunAgents(ctx, inst, ro, nodes[0], groups[0])
		feEnd = time.Now()
		feDone <- err
	}()
	res, err := distsim.RunAgents(ctx, inst, ro, nodes[1], groups[1])
	coEnd := time.Now()
	feErr := <-feDone
	s1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("slot %d coordinator node: %w", t, err)
	}
	if feErr != nil {
		return nil, fmt.Errorf("slot %d front-end node: %w", t, feErr)
	}
	heap.checkpoint()
	rec.add(opID, trace, 0, primaryOp, s0, s1)
	rec.add(0, trace, opID, "distsim.RunAgents", s0, coEnd)
	rec.add(0, trace, opID, "distsim.RunAgents", s0, feEnd)
	rec.add(setupID, setupTrace, 0, "bench.setup", t0, s1)

	s := &distSample{
		slot: t, setup: s1.Sub(t0), solve: s1.Sub(s0), genDur: t1.Sub(t0),
		res: res, inst: inst, opts: opts, hub: hub.Stats(),
	}
	s.hub.MessagesSent -= h0.MessagesSent
	s.hub.MessagesReceived -= h0.MessagesReceived
	s.hub.BytesSent -= h0.BytesSent
	s.hub.BytesReceived -= h0.BytesReceived
	s.hub.Flushes -= h0.Flushes
	for _, nd := range nodes {
		s.nodeFlsh += nd.Stats().Flushes
	}
	s.nodeFlsh -= nodeFlushes0
	return s, nil
}

// awaitRoute returns once a probe sent from one node reaches agent id on
// the other, which the hub routes only after registering every agent of
// that node's hello. The solve starts after both directions answer: the
// hub parks records for agents not registered yet, and a record that
// races the registration (no route found, the registration drains the
// parked records, then the record parks) is never delivered. The probe
// names a real agent of the sending node as its source, so it travels as
// an indexed record like the protocol's own, and carries iteration 0,
// which the protocol never waits for.
func awaitRoute(from, to *distsim.TCPNode, fromID, id string) error {
	inbox, err := to.Inbox(id)
	if err != nil {
		return err
	}
	probe := distsim.Message{Kind: distsim.KindControl, Iter: 0, From: fromID}
	for try := 0; try < 50; try++ {
		if err := from.Send(id, probe); err != nil {
			return fmt.Errorf("probe %s: %w", id, err)
		}
		select {
		case <-inbox:
			return nil
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("probe %s: no route after 5s", id)
}

// seqSolve solves the same instance in process (core.Solve) for the
// bit-identity check, with a solver probe when traced. Stopping at the
// iteration cap is not an error here: convergence is checked on the
// distributed result.
func seqSolve(s *distSample, probe *telemetry.SolverProbe) (core.Breakdown, int, time.Duration, error) {
	o := s.opts
	o.Probe = probe
	t0 := time.Now()
	_, bd, stats, err := core.Solve(s.inst, o)
	dur := time.Since(t0)
	if err != nil && !errors.Is(err, core.ErrNotConverged) {
		return bd, 0, dur, fmt.Errorf("slot %d in-process solve: %w", s.slot, err)
	}
	return bd, stats.Iterations, dur, nil
}

// runDistSolve solves distinct fleet slots 0, 1, 2, ... cold over the
// message-passing protocol for the measuring time, each on a fresh
// deployment, and checks every solve against the in-process solve bit for
// bit. The first fixedSolves always run; the first is also checked
// against the tight reference.
func runDistSolve(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	fam, err := fleetFamily(cfg.seed)
	if err != nil {
		return nil, err
	}
	fixedSolves := 2
	if cfg.smoke {
		fixedSolves = 1
	}
	var probe *telemetry.SolverProbe
	if cfg.rec != nil {
		probe = telemetry.NewSolverProbe()
	}
	var checks checkTally
	var setup, solveMs, gen, iterMs, seqIterMs []float64
	var phaseNs [3]float64
	var totalIters int
	var first *distSample
	var firstIters int
	// The measuring time goes to distributed solves alone; each is checked
	// against its in-process solve afterwards.
	var solved []*distSample
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for t := int64(0); t < int64(fixedSolves) || time.Now().Before(deadline); t++ {
		s, err := distSolve(fam, t, cfg.rec, cfg.heap, 0)
		if err != nil {
			return nil, err
		}
		solved = append(solved, s)
	}
	for _, s := range solved {
		var ph0 [3]uint64
		for k, ph := range phases {
			ph0[k] = probe.PhaseNanos(ph)
		}
		seq, seqIters, seqDur, err := seqSolve(s, probe)
		if err != nil {
			return nil, err
		}
		for k, ph := range phases {
			phaseNs[k] += float64(probe.PhaseNanos(ph) - ph0[k])
		}
		if err := checkDist(s.slot, s.res, seq, seqIters); err != nil {
			checks.record(err)
		} else if !s.res.Stats.Converged {
			checks.record(fmt.Errorf("slot %d: distributed solve not converged after %d iterations", s.slot, s.res.Stats.Iterations))
		} else {
			checks.record(nil)
		}
		it := s.res.Stats.Iterations
		setup = append(setup, s.setup.Seconds())
		solveMs = append(solveMs, ms(s.solve))
		gen = append(gen, ms(s.genDur))
		iterMs = append(iterMs, ms(s.solve)/float64(it))
		seqIterMs = append(seqIterMs, ms(seqDur)/float64(seqIters))
		totalIters += it
		if first == nil {
			first, firstIters = s, it
		}
	}
	var gap float64
	if ref, err := fam.reference(first.inst); err != nil {
		checks.record(fmt.Errorf("slot %d: %w", first.slot, err))
	} else {
		gap = objectiveGap(first.res.Breakdown.UFC, ref)
		checks.record(checkGap(first.slot, first.res.Breakdown.UFC, ref))
	}
	out.checks = checks

	out.primaryMs = mean(solveMs[:fixedSolves]) // before quantile sorts solveMs
	// About five solves fit a run, too few for any percentile to have ten
	// beyond it; p75 is the tail that moves least between runs.
	p50, p75 := quantile(solveMs, 0.5), quantile(solveMs, 0.75)
	itersPerS := float64(totalIters) / (sum(solveMs) / 1e3)
	out.named.set("setup_s", median(setup), "s")
	out.named.set("dist_solve_s", p50/1e3, "s")
	out.named.set("dist_iters_per_s", itersPerS, "1/s")
	out.named.set("objective_gap_max", gap, "relative")
	out.named.set("solves", float64(len(solveMs)), "count")

	out.endToEnd.set("setup_s", median(setup), "s")
	out.endToEnd.set("op_p50_ms", p50, "ms")
	out.endToEnd.set("op_tail_ms", p75, "ms")
	out.endToEnd.set("ops_per_s", itersPerS, "1/s")
	out.layers.set("core.objective_gap_max", gap, "relative")

	if cfg.rec != nil {
		l := out.layers
		fi := float64(firstIters)
		l.set("experiments.gen_ms", median(gen), "ms")
		l.set("core.iterations", fi, "count")
		l.set("core.cold_iterations", fi, "count")
		l.set("core.iter_us", 1e3*sum(seqIterMs)/float64(len(seqIterMs)), "us")
		solves := float64(len(solveMs))
		l.set("core.lambda_ms", phaseNs[0]/solves/1e6, "ms")
		l.set("core.datacenter_ms", phaseNs[1]/solves/1e6, "ms")
		l.set("core.correction_ms", phaseNs[2]/solves/1e6, "ms")
		distLayers(l, mean(iterMs), mean(seqIterMs), first, fi)
	}
	out.provenance = fam.describe
	out.provenance["deployment"] = "flat loopback hub, 2 node connections (front-ends | datacenters + coordinator), plain protocol"
	out.provenance["solves"] = len(solveMs)
	return out, nil
}

// distLayers fills the message-passing per-layer metrics. The counts come
// from the first solve, whose counters cover exactly the protocol's
// messages, so they repeat exactly for a seed.
func distLayers(l metricSet, iterMs, seqIterMs float64, first *distSample, iters float64) {
	l.set("distsim.iter_ms", iterMs, "ms")
	l.set("distsim.seq_iter_ms", seqIterMs, "ms")
	l.set("distsim.overhead_x", iterMs/seqIterMs, "x")
	h := first.hub
	l.set("distsim.msgs_per_iter", float64(h.MessagesSent+h.MessagesReceived)/iters, "count")
	l.set("distsim.bytes_per_iter", float64(h.BytesSent+h.BytesReceived)/iters, "B")
	l.set("distsim.flushes_per_iter", float64(h.Flushes+first.nodeFlsh)/iters, "count")
}
