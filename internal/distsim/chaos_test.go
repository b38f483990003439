package distsim_test

// Chaos-matrix tests for the fault-tolerant protocol. Everything here is
// driven by seeded FaultPlans, so each scenario is deterministic and
// replayable: the CI smoke step runs this file with
// `go test ./internal/distsim -run Chaos -race`.

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// chaosPolicy is tuned for test speed: fast retransmits, and a degrade
// deadline short enough that rounds blocked on a dead peer do not stall
// the suite, yet orders of magnitude above in-memory delivery latency so
// live messages never miss it even when the whole test suite is
// saturating the scheduler (the determinism precondition).
func chaosPolicy() *distsim.Resilience {
	return &distsim.Resilience{
		RetryInterval:   time.Millisecond,
		MaxRetries:      8,
		MessageDeadline: 500 * time.Millisecond,
		DeadAfter:       3,
		StalenessCap:    12,
	}
}

// runChaos executes one resilient distributed solve under plan.
func runChaos(t *testing.T, inst *core.Instance, opts core.Options, plan *distsim.FaultPlan, pol *distsim.Resilience) *distsim.Result {
	t.Helper()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	inner := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{})
	tr, err := distsim.NewFaultTransport(inner, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: opts, Resilience: pol}, tr)
	_ = tr.Close() //ufc:discard in-process transport; Run already surfaced any failure
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	return res
}

// slotBytes renders a result the way cmd/ufcsim logs a slot, so replay
// equality is asserted on the actual NDJSON wire bytes.
func slotBytes(t *testing.T, res *distsim.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := telemetry.NewNDJSONEmitter(&buf)
	if err := emit.Emit(experiments.NewSlotRecord(0, core.Hybrid, res.Breakdown, res.Allocation, res.Stats, false)); err != nil {
		t.Fatal(err)
	}
	if err := emit.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sparseChaosInstance is a 4×4 fleet in two latency regions under the
// region cutoff: the resilient protocol's mask-indexed agents exchange
// messages only across the feasible pairs.
func sparseChaosInstance(t *testing.T) (*core.Instance, core.Options) {
	t.Helper()
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 4, M: 4, Regions: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := st.Instance(1)
	opts := core.Options{SparsityCutoff: st.CutoffSec}
	eng, err := core.NewEngine(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m, n := inst.Cloud.M(), inst.Cloud.N(); eng.FeasiblePairs() >= m*n {
		t.Fatalf("region cutoff kept all %d pairs — not sparse", m*n)
	}
	return inst, opts
}

// TestChaosZeroFaultPlanBitIdentical pins the acceptance criterion that
// enabling the hardened protocol with an empty fault plan reproduces the
// sequential engine bit for bit — dense, and under a routing mask.
func TestChaosZeroFaultPlanBitIdentical(t *testing.T) {
	sparseInst, sparseOpts := sparseChaosInstance(t)
	cases := []struct {
		name string
		inst *core.Instance
		opts core.Options
	}{
		{"dense", testInstance(t, 1), core.Options{}},
		{"sparse-4x4x2", sparseInst, sparseOpts},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqAlloc, seqBD, seqStats, err := core.Solve(tc.inst, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			res := runChaos(t, tc.inst, tc.opts, &distsim.FaultPlan{Seed: 11}, chaosPolicy())
			if res.Degradation != nil {
				t.Fatalf("zero-fault run degraded: %+v", res.Degradation)
			}
			if res.Stats.Iterations != seqStats.Iterations || res.Breakdown.UFC != seqBD.UFC {
				t.Fatalf("zero-fault resilient run diverged: %d iters UFC %v, sequential %d iters UFC %v",
					res.Stats.Iterations, res.Breakdown.UFC, seqStats.Iterations, seqBD.UFC)
			}
			for i := range seqAlloc.Lambda {
				for j := range seqAlloc.Lambda[i] {
					if seqAlloc.Lambda[i][j] != res.Allocation.Lambda[i][j] {
						t.Fatalf("lambda[%d][%d]: resilient %v vs sequential %v (must be bit-identical)",
							i, j, res.Allocation.Lambda[i][j], seqAlloc.Lambda[i][j])
					}
				}
			}
		})
	}
}

// TestChaosMatrix sweeps loss × delay × duplication, plus loss on a
// masked fleet. Link faults are recoverable by retransmission and
// deduplication, so every cell must produce the exact fault-free
// solution — and two same-seed runs must produce byte-identical slot
// logs.
func TestChaosMatrix(t *testing.T) {
	dense := testInstance(t, 1)
	sparseInst, sparseOpts := sparseChaosInstance(t)
	cells := []struct {
		name   string
		link   distsim.LinkFault
		sparse bool
	}{
		{"loss10", distsim.LinkFault{DropProb: 0.1}, false},
		{"loss20", distsim.LinkFault{DropProb: 0.2}, false},
		{"delay", distsim.LinkFault{MaxExtraDelayMS: 3}, false},
		{"dup", distsim.LinkFault{DupProb: 0.3}, false},
		{"loss+delay", distsim.LinkFault{DropProb: 0.15, MaxExtraDelayMS: 2, DelayProb: 0.5}, false},
		{"loss+dup", distsim.LinkFault{DropProb: 0.1, DupProb: 0.2}, false},
		{"sparse-loss20", distsim.LinkFault{DropProb: 0.2}, true},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			inst, opts := dense, core.Options{}
			if cell.sparse {
				inst, opts = sparseInst, sparseOpts
			}
			_, seqBD, seqStats, err := core.Solve(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			plan := &distsim.FaultPlan{Seed: 1234, Links: []distsim.LinkFault{cell.link}}
			res := runChaos(t, inst, opts, plan, chaosPolicy())
			if !res.Stats.Converged {
				t.Fatalf("cell did not converge: %+v", res.Stats)
			}
			if res.Breakdown.UFC != seqBD.UFC || res.Stats.Iterations != seqStats.Iterations {
				t.Fatalf("recoverable faults changed the solution: UFC %v (want %v), iters %d (want %d)",
					res.Breakdown.UFC, seqBD.UFC, res.Stats.Iterations, seqStats.Iterations)
			}
			replay := runChaos(t, inst, opts, plan, chaosPolicy())
			if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
				t.Fatalf("same-seed replay produced different slot log:\n%s\n%s", want, got)
			}
		})
	}
}

// TestChaosPartitionDeclaresDeadAndCompletes: a partition across a control
// boundary exceeds the protocol's two-round catch-up retention, so the
// isolated datacenter is declared dead and the fleet degrades around it —
// deterministically. The replay runs traced: the tracer records the
// degrade decisions without changing a byte of the result.
func TestChaosPartitionDeclaresDeadAndCompletes(t *testing.T) {
	inst := testInstance(t, 1)
	plan := &distsim.FaultPlan{
		Seed:       5,
		Partitions: []distsim.Partition{{Agents: []string{"dc-1"}, FromIter: 8, ToIter: 10}},
	}
	res := runChaos(t, inst, core.Options{}, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("partitioned run reported no degradation")
	}
	foundDead := false
	for _, id := range res.Degradation.DeadAgents {
		if id == "dc-1" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("dc-1 not declared dead: %+v", res.Degradation)
	}
	rec := tracing.NewRecorder(tracing.Config{Component: "chaos", RingSize: 1 << 12, SampleEvery: 1})
	traced := chaosPolicy()
	traced.Tracer = rec
	replay := runChaos(t, inst, core.Options{}, plan, traced)
	if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("same-seed traced partition replay diverged:\n%s\n%s", want, got)
	}
	if n := rec.Recorded(); n > uint64(rec.Len()) {
		t.Fatalf("recorded %d spans, more than the %d-slot ring holds", n, rec.Len())
	}
	// Coordinator slots are fe-0..fe-(M-1), then dc-0..dc-(N-1).
	dc1 := int64(inst.Cloud.M() + 1)
	dead, missed := false, 0
	for _, sp := range rec.Snapshot(nil, 0) {
		switch sp.Name {
		case "coord.dead":
			if sp.Attrs["agent"] == dc1 {
				dead = true
			}
		case "coord.missed":
			missed++
		}
	}
	if !dead || missed == 0 {
		t.Fatalf("tracer saw coord.dead for dc-1 = %v and %d coord.missed events, want true and ≥1", dead, missed)
	}
}

// TestChaosLossAndDatacenterCrash is the headline acceptance scenario:
// 20% loss on every link plus a datacenter crash mid-solve. The solve
// must complete, degrade per policy (crashed datacenter declared dead),
// land within 1% UFC of the fault-free solution, and replay to
// byte-identical slot logs.
func TestChaosLossAndDatacenterCrash(t *testing.T) {
	inst := testInstance(t, 1)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := &distsim.FaultPlan{
		Seed:    77,
		Links:   []distsim.LinkFault{{DropProb: 0.2}},
		Crashes: []distsim.Crash{{Agent: "dc-1", AtIter: 30}},
	}
	res := runChaos(t, inst, core.Options{}, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("crashed run reported no degradation")
	}
	foundDead := false
	for _, id := range res.Degradation.DeadAgents {
		if id == "dc-1" {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("crashed datacenter not declared dead: %+v", res.Degradation)
	}
	if rel := math.Abs(res.Breakdown.UFC-seqBD.UFC) / math.Abs(seqBD.UFC); rel > 0.01 {
		t.Fatalf("degraded UFC %v deviates %.2f%% from fault-free %v (cap 1%%)",
			res.Breakdown.UFC, 100*rel, seqBD.UFC)
	}
	replay := runChaos(t, inst, core.Options{}, plan, chaosPolicy())
	if got, want := slotBytes(t, replay), slotBytes(t, res); !bytes.Equal(got, want) {
		t.Fatalf("same-seed crash replay diverged:\n%s\n%s", want, got)
	}
}

// TestChaosFrontEndCrashProximityFallback: a front-end that dies before
// delivering its final routing is finalized by the proximity policy — all
// of its demand at its nearest datacenter.
func TestChaosFrontEndCrashProximityFallback(t *testing.T) {
	inst := testInstance(t, 1)
	plan := &distsim.FaultPlan{
		Seed:    9,
		Crashes: []distsim.Crash{{Agent: "fe-2", AtIter: 30}},
	}
	res := runChaos(t, inst, core.Options{}, plan, chaosPolicy())
	if res.Degradation == nil {
		t.Fatal("front-end crash reported no degradation")
	}
	foundProx := false
	for _, i := range res.Degradation.ProximityFrontEnds {
		if i == 2 {
			foundProx = true
		}
	}
	if !foundProx {
		t.Fatalf("fe-2 not finalized by proximity fallback: %+v", res.Degradation)
	}
	n := inst.Cloud.N()
	best := 0
	for j := 1; j < n; j++ {
		if inst.Cloud.LatencySec(2, j) < inst.Cloud.LatencySec(2, best) {
			best = j
		}
	}
	for j := 0; j < n; j++ {
		want := 0.0
		if j == best {
			want = inst.Arrivals[2]
		}
		if res.Allocation.Lambda[2][j] != want {
			t.Fatalf("proximity row lambda[2] = %v, want all %v at dc %d",
				res.Allocation.Lambda[2], inst.Arrivals[2], best)
		}
	}
}
