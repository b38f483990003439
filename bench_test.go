// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact, plus the solver ablations and
// micro-benchmarks of the core algorithm. Run them all with
//
//	go test -bench=. -benchmem
//
// Each artifact benchmark logs its rendered table once (visible with -v),
// so a single benchmark run reproduces the paper's reported rows. The
// benchmark configuration uses a reduced horizon/scale so the suite
// completes quickly; cmd/experiments runs the full-scale versions.
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/telemetry"
	"repro/ufc"
)

// benchConfig is the shared reduced-size configuration: the full 4x10
// topology at 20% fleet scale over 48 hours.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.2
	cfg.Hours = 48
	return cfg
}

var benchSolver = core.Options{MaxIterations: 3000}

var logOnce sync.Map

func logTable(b *testing.B, key, rendered string) {
	b.Helper()
	if _, seen := logOnce.LoadOrStore(key, true); !seen {
		b.Log("\n" + rendered)
	}
}

// BenchmarkTable1 regenerates Table I: weekly energy costs of the Grid /
// Fuel Cell / Hybrid strategies at Dallas and San Jose.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultConfig() // full week; Table I is cheap
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableOne(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "table1", res.Table().Render())
	}
}

// BenchmarkFig1 regenerates Fig. 1: the power-demand profile and the
// Dallas / San Jose price traces.
func BenchmarkFig1(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigOne(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig1", res.Table().Render())
	}
}

// BenchmarkFig3 regenerates Fig. 3: the workload, price and carbon-rate
// traces of the four datacenter sites.
func BenchmarkFig3(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigThree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig3", res.Table().Render())
	}
}

// weekComparison memoizes the three-strategy week run shared by the
// Fig. 4–8 and Fig. 11 benchmarks' reporting.
func runWeekComparison(b *testing.B) *experiments.WeekComparison {
	b.Helper()
	w, err := experiments.RunWeekComparison(context.Background(), benchConfig(), benchSolver)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFig4 regenerates Fig. 4: hourly UFC improvements I_hg, I_hf,
// I_fg of the strategy pairs.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		logTable(b, "fig4", w.FigFourTable().Render())
	}
}

// BenchmarkFig5 regenerates Fig. 5: average propagation latency per
// strategy.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		logTable(b, "fig5", w.FigFiveTable().Render())
	}
}

// BenchmarkFig6 regenerates Fig. 6: hourly energy cost per strategy.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		logTable(b, "fig6", w.FigSixTable().Render())
	}
}

// BenchmarkFig7 regenerates Fig. 7: hourly carbon emission cost per
// strategy.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		logTable(b, "fig7", w.FigSevenTable().Render())
	}
}

// BenchmarkFig8 regenerates Fig. 8: the hybrid strategy's hourly fuel-cell
// utilization.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		logTable(b, "fig8", w.FigEightTable().Render())
	}
}

// BenchmarkFig9 regenerates Fig. 9: the fuel-cell price sweep (average UFC
// improvement and utilization vs p0).
func BenchmarkFig9(b *testing.B) {
	cfg := benchConfig()
	cfg.Hours = 24
	prices := []float64{20, 27, 45, 65, 80, 110}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigNine(context.Background(), cfg, benchSolver, prices)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig9", res.Table().Render())
	}
}

// BenchmarkFig10 regenerates Fig. 10: the carbon tax sweep.
func BenchmarkFig10(b *testing.B) {
	cfg := benchConfig()
	cfg.Hours = 24
	taxes := []float64{0, 25, 75, 140, 200}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigTen(context.Background(), cfg, benchSolver, taxes)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig10", res.Table().Render())
	}
}

// BenchmarkFig11 regenerates Fig. 11: the CDF of ADM-G iterations to
// convergence across the per-hour runs.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := runWeekComparison(b)
		f11, err := w.FigEleven()
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig11", f11.Table().Render())
	}
}

// BenchmarkForecastStudy runs the arrival-prediction sensitivity study
// (the premise of §II-A) with the naive and Holt-Winters predictors.
func BenchmarkForecastStudy(b *testing.B) {
	cfg := benchConfig()
	cfg.Hours = 96
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunForecastStudy(cfg, benchSolver, []string{"naive", "holt-winters"})
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "forecast", res.Table().Render())
	}
}

// BenchmarkRightSizing runs the §II-C Remark extension study (idle servers
// powered off).
func BenchmarkRightSizing(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRightSizingStudy(cfg, 8, benchSolver)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "rightsizing", res.Table().Render())
	}
}

// BenchmarkRampStudy runs the load-following extension study (finite
// fuel-cell ramp rates).
func BenchmarkRampStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRampStudy(cfg, benchSolver, []float64{1, 0.2, 0.05})
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "ramp", res.Table().Render())
	}
}

// BenchmarkAblationRho sweeps the penalty multiplier (the design choice
// behind the engine's curvature-scaled ρ).
func BenchmarkAblationRho(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationRho(cfg, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "ablation-rho", res.Table().Render())
	}
}

// BenchmarkAblationEpsilon sweeps the Gaussian back-substitution step ε.
func BenchmarkAblationEpsilon(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationEpsilon(cfg, 8, nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "ablation-eps", res.Table().Render())
	}
}

// BenchmarkAblationCorrection compares ADM-G with the correction step
// against plain 4-block ADMM.
func BenchmarkAblationCorrection(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationCorrection(cfg, 8)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "ablation-corr", res.Table().Render())
	}
}

// --- Micro-benchmarks of the core algorithm. ---

func benchInstance(b *testing.B) *ufc.Instance {
	b.Helper()
	sc, err := experiments.NewScenario(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sc.InstanceAt(12)
}

// BenchmarkSolveSlot measures one full-slot ADM-G solve (paper topology,
// 20% fleet scale).
func BenchmarkSolveSlot(b *testing.B) {
	inst := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.Solve(inst, benchSolver); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveColdStart solves 24 consecutive hourly slots from scratch
// (the pre-warm-start behaviour), reporting the total ADM-G iterations.
func BenchmarkSolveColdStart(b *testing.B) {
	sc, err := experiments.NewScenario(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		iters = 0
		for t := 0; t < 24; t++ {
			_, _, st, err := core.Solve(sc.InstanceAt(t), benchSolver)
			if err != nil {
				b.Fatal(err)
			}
			iters += st.Iterations
		}
	}
	b.ReportMetric(float64(iters), "iters/day")
}

// BenchmarkSolveWarmStart solves the same 24 slots through one engine,
// seeding each hour with the previous hour's converged state. Compare the
// iters/day metric against BenchmarkSolveColdStart.
func BenchmarkSolveWarmStart(b *testing.B) {
	sc, err := experiments.NewScenario(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var iters int
	for i := 0; i < b.N; i++ {
		iters = 0
		eng, err := core.NewEngine(sc.InstanceAt(0), benchSolver)
		if err != nil {
			b.Fatal(err)
		}
		state := core.NewState(sc.Cloud.M(), sc.Cloud.N())
		for t := 0; t < 24; t++ {
			if t > 0 {
				if err := eng.Reset(sc.InstanceAt(t)); err != nil {
					b.Fatal(err)
				}
			}
			_, _, st, err := eng.SolveState(state)
			if err != nil {
				b.Fatal(err)
			}
			iters += st.Iterations
		}
		eng.Close()
	}
	b.ReportMetric(float64(iters), "iters/day")
}

// BenchmarkIterate measures a single ADM-G iteration (all four block
// minimizations plus dual update and correction).
func BenchmarkIterate(b *testing.B) {
	inst := benchInstance(b)
	e, err := core.NewEngine(inst, benchSolver)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewState(inst.Cloud.M(), inst.Cloud.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Iterate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterateInstrumented is BenchmarkIterate with a telemetry
// probe attached: the delta against the plain benchmark is the full
// observability overhead per iteration (two clock reads and a handful of
// atomic adds), and ReportAllocs keeps the zero-allocation claim visible
// in the bench smoke run.
func BenchmarkIterateInstrumented(b *testing.B) {
	inst := benchInstance(b)
	opts := benchSolver
	opts.Probe = telemetry.NewSolverProbe()
	e, err := core.NewEngine(inst, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewState(inst.Cloud.M(), inst.Cloud.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Iterate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterateParallel measures the same iteration with the
// intra-iteration worker pool enabled (bit-identical iterates).
func BenchmarkIterateParallel(b *testing.B) {
	inst := benchInstance(b)
	opts := benchSolver
	opts.Workers = 4
	e, err := core.NewEngine(inst, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	s := core.NewState(inst.Cloud.M(), inst.Cloud.N())
	if err := e.Iterate(s); err != nil { // spawn the pool outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Iterate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDistributedInMemory measures a full distributed solve over
// the in-memory message transport.
func BenchmarkSolveDistributedInMemory(b *testing.B) {
	inst := benchInstance(b)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{Seed: int64(i)})
		if _, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: benchSolver}, tr); err != nil {
			b.Fatal(err)
		}
		_ = tr.Close()
	}
}

// --- Transport micro-benchmarks (binary wire layer). ---

// listenHub starts a plaintext hub on a loopback port.
func listenHub(cfg distsim.ListenConfig) (*distsim.TCPHub, error) {
	cfg.Addr = "127.0.0.1:0"
	return distsim.Listen(context.Background(), cfg)
}

// dialNode connects a plaintext v1 node hosting ids to the hub at addr.
func dialNode(addr string, ids []string, buffer int) (*distsim.TCPNode, error) {
	ep, err := distsim.Dial(context.Background(), distsim.DialConfig{Addr: addr, AgentIDs: ids, Buffer: buffer})
	if err != nil {
		return nil, err
	}
	return ep.(*distsim.TCPNode), nil
}

// BenchmarkTransportThroughput measures the binary wire layer — framed
// records, coalesced buffered writes, index routing — by pumping b.N
// routing messages fe-0 → hub → dc-0 over loopback and reporting
// msgs/sec and bytes/msg. The payload is the current protocol's routing
// message (λ̃_ij, φ_ij) — the sender index rides in the frame header, not
// the payload — and Iter cycles through the range a real solve produces
// (MaxIterations caps it at a few thousand) so varint integer sizes are
// representative.
func BenchmarkTransportThroughput(b *testing.B) {
	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	recv, err := dialNode(hub.Addr(), []string{"dc-0"}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	send, err := dialNode(hub.Addr(), []string{"fe-0"}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = send.Close() }()
	inbox, err := recv.Inbox("dc-0")
	if err != nil {
		b.Fatal(err)
	}
	payload := []float64{0.5227926331, 0.1893718274}
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			<-inbox
		}
		close(done)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send("dc-0", distsim.Message{
			Kind: distsim.KindRouting, Iter: 1 + i%1000, From: "fe-0", Payload: payload,
		}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	st := send.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
	if st.MessagesSent > 0 {
		b.ReportMetric(float64(st.BytesSent)/float64(st.MessagesSent), "bytes/msg")
	}
	if st.Flushes > 0 {
		b.ReportMetric(st.AvgBatch(), "msgs/flush")
	}
}

// BenchmarkSolveDistributedTCP measures a full distributed solve with
// every message crossing loopback TCP through the hub via the binary
// wire layer.
func BenchmarkSolveDistributedTCP(b *testing.B) {
	inst := benchInstance(b)
	m, n := inst.Cloud.M(), inst.Cloud.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub, err := listenHub(distsim.ListenConfig{})
		if err != nil {
			b.Fatal(err)
		}
		node, err := dialNode(hub.Addr(), distsim.AllAgentIDs(m, n), 256)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: benchSolver}, node); err != nil {
			b.Fatal(err)
		}
		_ = node.Close()
		_ = hub.Close()
	}
}

// BenchmarkIterateWide measures one ADM-G iteration with 50 front-ends —
// the per-iteration cost is dominated by the per-datacenter a-minimization
// QPs, whose size grows with M (the motivation for the distributed
// decomposition).
func BenchmarkIterateWide(b *testing.B) {
	cfg := benchConfig()
	sc, err := experiments.NewScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := sc.InstanceAt(12)
	// Widen to 50 front-ends by splitting each of the 10 into 5.
	m := 50
	fes := make([]ufc.FrontEnd, m)
	arr := make([]float64, m)
	for i := 0; i < m; i++ {
		src := base.Cloud.FrontEnds[i%10]
		fes[i] = src
		arr[i] = base.Arrivals[i%10] / 5
	}
	cloud, err := ufc.NewCloud(base.Cloud.Datacenters, fes)
	if err != nil {
		b.Fatal(err)
	}
	inst := *base
	inst.Cloud = cloud
	inst.Arrivals = arr
	e, err := core.NewEngine(&inst, benchSolver)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewState(m, inst.Cloud.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Iterate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterateScale measures one ADM-G iteration at the tentpole
// scale — N=200 datacenters × M=20 000 front-ends in 16 regions — with
// the region latency cutoff as the sparsity mask, so the per-iteration
// work covers the ~N·M/16 feasible pairs instead of all 4 million.
// ReportAllocs keeps the 0 allocs/op steady-state guarantee visible at
// this size; TestSparseIterateZeroAllocs enforces it on small fleets,
// serially and with a worker pool, and the benchmark's fleet_day workload
// (perfbench) times whole 20×200 solves.
func BenchmarkIterateScale(b *testing.B) {
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 200, M: 20000, Regions: 16}, 7)
	if err != nil {
		b.Fatal(err)
	}
	inst := st.Instance(8)
	opts := benchSolver
	opts.SparsityCutoff = st.CutoffSec
	opts.Workers = 8
	e, err := core.NewEngine(inst, opts)
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewState(inst.Cloud.M(), inst.Cloud.N())
	if err := e.Iterate(s); err != nil { // warm the scratch outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Iterate(s); err != nil {
			b.Fatal(err)
		}
	}
}
