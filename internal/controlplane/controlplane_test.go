package controlplane

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

func testTrace(t *testing.T, n, m, r int, cycle int64) (func(int64) *core.Instance, core.Options) {
	t.Helper()
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: n, M: m, Regions: r}, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Workers: 2, Tolerance: core.OneServerTolerance(st.Instance(7))}
	if r > 1 {
		opts.SparsityCutoff = st.CutoffSec
	}
	return func(slot int64) *core.Instance {
		if cycle > 0 {
			slot %= cycle
		}
		return st.SlotInstance(7, slot)
	}, opts
}

func TestSnapshotWeightsAndDecide(t *testing.T) {
	trace, opts := testTrace(t, 4, 10, 1, 0)
	p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	if err := p.RunSlot(); err != nil {
		t.Fatal(err)
	}
	s := p.Router().Current()
	if s == nil {
		t.Fatal("no snapshot after RunSlot")
	}
	if s.Slot != 0 || s.M != 10 || s.N != 4 {
		t.Fatalf("snapshot header: slot %d, %dx%d", s.Slot, s.M, s.N)
	}
	if e := s.MaxRowError(); e > 1e-9 {
		t.Fatalf("routing rows deviate from a distribution by %g", e)
	}
	w := make([]float64, s.N)
	for fe := 0; fe < s.M; fe++ {
		s.Weights(fe, w)
		var sum float64
		for dc, f := range w {
			if f < -1e-12 || f > 1+1e-12 {
				t.Fatalf("weight[%d][%d] = %g", fe, dc, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("fe %d weights sum to %g", fe, sum)
		}
	}
	// Decide must invert the distribution: u→0 lands on a positive-weight
	// datacenter, as does u→max.
	s.Weights(0, w)
	first, _, _, ok := p.Router().Decide(0, 0)
	if !ok {
		t.Fatal("decide failed")
	}
	if w[first] <= 0 {
		t.Fatalf("u=0 chose dc %d with weight %g", first, w[first])
	}
	last, _, _, _ := p.Router().Decide(0, ^uint64(0))
	if w[last] <= 0 {
		t.Fatalf("u=max chose dc %d with weight %g", last, w[last])
	}
	// And over many draws the empirical split must follow the weights.
	counts := make([]int, s.N)
	const draws = 200_000
	u := uint64(12345)
	for k := 0; k < draws; k++ {
		u = u*6364136223846793005 + 1442695040888963407 // LCG: cheap uniform entropy
		dc, _, _, ok := p.Router().Decide(3, u)
		if !ok {
			t.Fatal("decide failed")
		}
		counts[dc]++
	}
	s.Weights(3, w)
	for dc := 0; dc < s.N; dc++ {
		got := float64(counts[dc]) / draws
		if math.Abs(got-w[dc]) > 0.01 {
			t.Fatalf("dc %d: empirical share %.4f vs weight %.4f", dc, got, w[dc])
		}
	}
}

func TestDecideZeroAlloc(t *testing.T) {
	trace, opts := testTrace(t, 4, 10, 1, 0)
	p, err := New(Config{Instance: trace, Solver: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	if err := p.RunSlot(); err != nil {
		t.Fatal(err)
	}
	r := p.Router()
	var u uint64 = 1
	allocs := testing.AllocsPerRun(1000, func() {
		u = u*6364136223846793005 + 1442695040888963407
		if _, _, _, ok := r.Decide(uint32(u%10), u); !ok {
			panic("decide failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Decide allocates %v per op, want 0", allocs)
	}
}

func TestWarmStartBeatsCold(t *testing.T) {
	const slots = 3
	run := func(warmStart bool) Report {
		trace, opts := testTrace(t, 4, 10, 1, 0)
		p, err := New(Config{Instance: trace, Solver: opts, WarmStart: warmStart})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Stop() }()
		for s := 0; s < slots; s++ {
			if err := p.RunSlot(); err != nil {
				t.Fatal(err)
			}
		}
		return p.Report()
	}
	warm, cold := run(true), run(false)
	if cold.WarmSolves != 0 || cold.ColdSolves != slots {
		t.Fatalf("cold pipeline reports %d warm / %d cold solves", cold.WarmSolves, cold.ColdSolves)
	}
	if warm.WarmSolves != slots-1 || warm.ColdSolves != 1 {
		t.Fatalf("warm pipeline reports %d warm / %d cold solves", warm.WarmSolves, warm.ColdSolves)
	}
	if warm.Unconverged+cold.Unconverged != 0 {
		t.Fatalf("unconverged solves: warm %d cold %d", warm.Unconverged, cold.Unconverged)
	}
	if warm.WarmPerSolve() >= cold.ColdPerSolve() {
		t.Fatalf("warm %.0f iters/solve not below cold %.0f", warm.WarmPerSolve(), cold.ColdPerSolve())
	}
}

func TestMemoCacheHitRepublishes(t *testing.T) {
	const cycle = 2
	trace, opts := testTrace(t, 4, 10, 1, cycle)
	reg := telemetry.NewRegistry()
	p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true, CacheSize: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	for s := 0; s < 2*cycle; s++ {
		if err := p.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	r := p.Report()
	if r.CacheMisses != cycle || r.CacheHits != cycle {
		t.Fatalf("cache %d hits / %d misses, want %d / %d", r.CacheHits, r.CacheMisses, cycle, cycle)
	}
	if r.Solves != cycle {
		t.Fatalf("%d solves, want %d (hits must not solve)", r.Solves, cycle)
	}
	s := p.Router().Current()
	if s == nil || s.Slot != 2*cycle-1 {
		t.Fatalf("cache hit did not republish: slot %v", s)
	}
	if !s.Info.Cached {
		t.Fatal("republished snapshot not marked Cached")
	}
	if p.CacheLen() != cycle {
		t.Fatalf("cache holds %d entries, want %d", p.CacheLen(), cycle)
	}
	// A hit republish shares the routing rows with the cached snapshot —
	// O(1) work, not a copy.
	var shared bool
	for _, cached := range p.cache.entries {
		if &cached.start[0] == &s.start[0] && &cached.dc[0] == &s.dc[0] && &cached.cum[0] == &s.cum[0] {
			shared = true
		}
	}
	if !shared {
		t.Fatal("republished snapshot copied the routing slab")
	}
}

func TestCacheQuantizationDistinguishesInputs(t *testing.T) {
	trace, opts := testTrace(t, 4, 10, 1, 0)
	p, err := New(Config{Instance: trace, Solver: opts, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	// Distinct slots draw distinct inputs: no false hits.
	for s := 0; s < 3; s++ {
		if err := p.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	if r := p.Report(); r.CacheHits != 0 || r.CacheMisses != 3 {
		t.Fatalf("distinct slots: %d hits / %d misses, want 0 / 3", r.CacheHits, r.CacheMisses)
	}
}

// TestCacheDigestScaleAware: inputs that differ only by a uniform factor
// (same shape, different magnitude) or only in a scalar field have
// different optima and must produce different keys. Regression test — the
// first digest normalized each array by its own max, so a flat ×1.2
// demand swing collided with its base slot.
func TestCacheDigestScaleAware(t *testing.T) {
	trace, _ := testTrace(t, 4, 10, 1, 0)
	base := trace(0)
	_, baseKey := digestInstance(nil, base, 1e-3)

	scaled := *base
	scaled.Arrivals = append([]float64(nil), base.Arrivals...)
	for i := range scaled.Arrivals {
		scaled.Arrivals[i] *= 1.2
	}
	if _, k := digestInstance(nil, &scaled, 1e-3); k == baseKey {
		t.Error("uniformly scaled arrivals share the base key")
	}

	repriced := *base
	repriced.FuelCellPriceUSD = base.FuelCellPriceUSD * 2
	if _, k := digestInstance(nil, &repriced, 1e-3); k == baseKey {
		t.Error("doubled fuel-cell price shares the base key")
	}

	reweighted := *base
	reweighted.WeightW = base.WeightW * 3
	if _, k := digestInstance(nil, &reweighted, 1e-3); k == baseKey {
		t.Error("tripled latency weight shares the base key")
	}

	// Jitter below the quantum must still collide — that is the cache's
	// whole point.
	jittered := *base
	jittered.Arrivals = append([]float64(nil), base.Arrivals...)
	for i := range jittered.Arrivals {
		jittered.Arrivals[i] *= 1 + 1e-7
	}
	if _, k := digestInstance(nil, &jittered, 1e-3); k != baseKey {
		t.Error("sub-quantum jitter changed the key")
	}
}

func TestMemoCacheEviction(t *testing.T) {
	c := newMemoCache(2)
	a, b, d := &Snapshot{Slot: 1}, &Snapshot{Slot: 2}, &Snapshot{Slot: 3}
	c.put("a", a)
	c.put("b", b)
	c.put("d", d) // evicts "a" (FIFO)
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest entry not evicted")
	}
	for _, k := range []string{"b", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %q missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	var nilCache *memoCache
	if _, ok := nilCache.get("x"); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.put("x", a) // must not panic
}

func TestPipelineReshape(t *testing.T) {
	// A trace whose topology changes shape mid-stream: the pipeline must
	// restart from a fresh state, not feed the old slab to the new shape.
	small, opts := testTrace(t, 4, 10, 1, 0)
	big, _ := testTrace(t, 6, 20, 1, 0)
	p, err := New(Config{
		Instance: func(slot int64) *core.Instance {
			if slot >= 2 {
				return big(slot)
			}
			return small(slot)
		},
		Solver:    opts,
		WarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	for s := 0; s < 4; s++ {
		if err := p.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Router().Current()
	if snap.M != 20 || snap.N != 6 {
		t.Fatalf("post-reshape snapshot is %dx%d", snap.M, snap.N)
	}
	r := p.Report()
	// Slot 2 restarts cold (fresh state); slots 1 and 3 warm-start.
	if r.WarmSolves != 2 || r.ColdSolves != 2 {
		t.Fatalf("reshape accounting: %d warm / %d cold, want 2 / 2", r.WarmSolves, r.ColdSolves)
	}
}

func TestRunLoopServesConcurrently(t *testing.T) {
	trace, opts := testTrace(t, 4, 10, 1, 2)
	p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true, CacheSize: 4, SlotInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	// Hammer the read path from several goroutines while the loop
	// republishes — the race detector checks the snapshot swap.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := uint64(g + 1)
			for k := 0; k < 20_000; k++ {
				u = u*6364136223846793005 + 1442695040888963407
				if _, _, age, ok := p.Decide(uint32(u%10), u); !ok || age < 0 {
					t.Errorf("decide: ok=%v age=%d", ok, age)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	r := p.Report()
	if r.Solves == 0 || r.Slot < 0 {
		t.Fatalf("loop made no progress: %+v", r)
	}
}

func TestStatsPayloadRoundTrip(t *testing.T) {
	trace, opts := testTrace(t, 4, 10, 1, 2)
	p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true, CacheSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }()
	for s := 0; s < 3; s++ {
		if err := p.RunSlot(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ParseStatsPayload(p.StatsPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := p.Report()
	if got.M != 10 || got.N != 4 {
		t.Fatalf("shape %dx%d, want 10x4", got.M, got.N)
	}
	if got.Solves != want.Solves || got.WarmSolves != want.WarmSolves ||
		got.CacheHits != want.CacheHits || got.Slot != want.Slot {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got.Report, want)
	}
	if _, err := ParseStatsPayload([]float64{99}); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := p.StatsPayload(nil)
	bad[0] = 42
	if _, err := ParseStatsPayload(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestTracedSolveBitIdentical: attaching a tracer to the pipeline must not
// change a single bit of the published routing tables or the iteration
// counts — spans observe the solve, they never participate in it. The
// traced decide path must likewise agree with the plain one exactly.
func TestTracedSolveBitIdentical(t *testing.T) {
	trace, opts := testTrace(t, 3, 6, 3, 2)
	run := func(tr *tracing.Recorder) []*Snapshot {
		p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true, CacheSize: 4, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = p.Stop() }() //ufc:discard test cleanup
		var snaps []*Snapshot
		for s := 0; s < 4; s++ {
			if err := p.RunSlot(); err != nil {
				t.Fatalf("slot %d: %v", s, err)
			}
			snaps = append(snaps, p.Router().Current())
		}
		return snaps
	}

	traceReg := tracing.NewRegistry()
	rec := traceReg.Recorder(tracing.Config{Component: "cp", IDs: tracing.NewIDSource(3), SampleEvery: 1})
	plain := run(nil)
	traced := run(rec)
	if rec.Recorded() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for s := range plain {
		a, b := plain[s], traced[s]
		if a.Slot != b.Slot || a.M != b.M || a.N != b.N || a.Info.Iterations != b.Info.Iterations {
			t.Fatalf("slot %d: header diverged: %+v vs %+v", s, a.Info, b.Info)
		}
		if !slices.Equal(a.start, b.start) || !slices.Equal(a.dc, b.dc) {
			t.Fatalf("slot %d: row layout diverged between plain and traced", s)
		}
		for k := range a.cum {
			if math.Float64bits(a.cum[k]) != math.Float64bits(b.cum[k]) {
				t.Fatalf("slot %d: cum[%d] = %x (plain) vs %x (traced)",
					s, k, math.Float64bits(a.cum[k]), math.Float64bits(b.cum[k]))
			}
		}
	}

	// DecideTraced is Decide plus a span; the decision tuple must match.
	p, err := New(Config{Instance: trace, Solver: opts, WarmStart: true, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Stop() }() //ufc:discard test cleanup
	if err := p.RunSlot(); err != nil {
		t.Fatal(err)
	}
	for fe := uint32(0); fe < 6; fe++ {
		for _, u := range []uint64{0, 1 << 32, 1<<63 + 12345, ^uint64(0)} {
			dc1, slot1, _, ok1 := p.Decide(fe, u)
			probe := rec.Root("probe")
			tc := probe.Context()
			probe.End()
			dc2, slot2, _, ok2 := p.DecideTraced(fe, u, tc)
			if dc1 != dc2 || slot1 != slot2 || ok1 != ok2 {
				t.Fatalf("fe=%d u=%d: Decide (%d,%d,%v) vs DecideTraced (%d,%d,%v)",
					fe, u, dc1, slot1, ok1, dc2, slot2, ok2)
			}
		}
	}
}
