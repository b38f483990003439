// Command ufchub runs the TCP message hub for a multi-process distributed
// solve. Start the hub, then start one or more ufcnode processes pointing
// at it; together they execute the distributed 4-block ADM-G protocol.
//
//	ufchub -listen 127.0.0.1:7070
//	ufcnode -hub 127.0.0.1:7070 -instance inst.json -agents fe-0,fe-1,...  &
//	ufcnode -hub 127.0.0.1:7070 -instance inst.json -agents dc-0,...      &
//	ufcnode -hub 127.0.0.1:7070 -instance inst.json -agents coord
//
// Hubs compose into a tree for large topologies: start a root hub, then
// one sub-hub per region with -parent pointing at the root, and connect
// each region's nodes to its sub-hub. Intra-region traffic terminates at
// the sub-hub; the rest travels the hub↔hub links as coalesced batch
// records.
//
//	ufchub -listen :7070                                          # root
//	ufchub -listen :7071 -parent 127.0.0.1:7070 -region 0         # region 0
//	ufchub -listen :7072 -parent 127.0.0.1:7070 -region 1         # region 1
//
// With -serve the hub additionally becomes an online control plane: a
// background pipeline re-solves the -topology instance every
// -slot-interval on a rolling horizon (each slot warm-started from the
// previous slot's iterate) and publishes each slot's routing table as an
// immutable snapshot. Lookup records arriving on any connection are
// answered from the current snapshot — one atomic load, no locks, no
// allocation — so decision latency is independent of solve time. Drive it
// with ufcload:
//
//	ufchub -listen :7070 -serve -topology 20,200,4 -slot-interval 500ms -slot-cycle 8
//	ufcload -addr 127.0.0.1:7070 -conns 4 -rps 20000 -duration 10s
//
// The repository benchmark (perfbench, workload serve_lookup) measures
// the same lookup path against an in-process hub.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
	"repro/internal/netcfg"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ufchub:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ufchub", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "address to listen on")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and net/http/pprof on this address")
	idleTimeout := fs.Duration("idle-timeout", 0, "drop node connections silent for this long (0 disables; pair with ufcnode -heartbeat-interval)")
	parent := fs.String("parent", "", "parent hub address; makes this a regional sub-hub in a hub tree")
	region := fs.Int("region", 0, "region tag reported to the parent hub (with -parent)")
	routeShards := fs.Int("route-shards", 0, "routing-table shards, power of two (0 uses the default)")
	serve := fs.Bool("serve", false, "run an online control plane: rolling-horizon solves of -topology, lookups answered from the live snapshot")
	topoSpec := fs.String("topology", "", "with -serve: synthetic topology \"N,M,R\" to serve (required)")
	seed := fs.Int64("seed", 7, "with -serve: synthetic topology base seed")
	slotInterval := fs.Duration("slot-interval", time.Second, "with -serve: pacing between slot re-solves")
	slotCycle := fs.Int("slot-cycle", 0, "with -serve: cycle per-slot inputs over this many distinct slots (> 0 exercises the memo cache; 0 = every slot distinct)")
	cacheSize := fs.Int("cache-size", 64, "with -serve: solve memoization cache entries (0 disables)")
	maxIters := fs.Int("maxiters", 0, "with -serve: per-slot solver iteration budget (0 = solver default)")
	solverWorkers := fs.Int("solver-workers", runtime.GOMAXPROCS(0), "with -serve: solver worker goroutines")
	var sec netcfg.Flags
	sec.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sec.Validate(); err != nil {
		return err
	}

	var reg *telemetry.Registry
	var traceReg *tracing.Registry
	var hubTracer, cpTracer *tracing.Recorder
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "ufchub")
		// One deterministic ID stream per process; recorders share it so a
		// hub-side span never collides with a pipeline-side one.
		traceReg = tracing.NewRegistry()
		ids := tracing.NewIDSource(*seed)
		hubTracer = traceReg.Recorder(tracing.Config{Component: "hub", IDs: ids, SampleEvery: 1})
		cpTracer = traceReg.Recorder(tracing.Config{Component: "controlplane", IDs: ids, SampleEvery: 1})
	}

	security, err := sec.ServerSecurity()
	if err != nil {
		return err
	}
	cfg := distsim.ListenConfig{
		Addr:        *listen,
		IdleTimeout: *idleTimeout,
		RouteShards: *routeShards,
		Parent:      *parent,
		Region:      *region,
		Tracer:      hubTracer,
		Security:    security,
	}
	if *parent != "" {
		// The uplink is a dial: reuse the same flag block as a client
		// (-tls-ca verifies the parent, -tls-cert/-tls-key is presented
		// when the parent demands mutual TLS).
		psec, err := sec.ClientSecurity()
		if err != nil {
			return err
		}
		cfg.ParentSecurity = &psec
	}

	var pipe *controlplane.Pipeline
	if *serve {
		var err error
		if pipe, err = newServePipeline(*topoSpec, *seed, *slotCycle, *cacheSize, *maxIters, *solverWorkers, *slotInterval, reg, cpTracer); err != nil {
			return err
		}
		cfg.Decider = pipe
	} else {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*topoSpec != "", "-topology"},
			{*slotCycle != 0, "-slot-cycle"},
		} {
			if f.set {
				return fmt.Errorf("%s requires -serve", f.name)
			}
		}
	}

	hub, err := distsim.Listen(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer func() { _ = hub.Close() }() //ufc:discard best-effort cleanup on the signal-driven exit path
	fmt.Println("hub listening on", hub.Addr())

	if pipe != nil {
		// First solve completes before Run returns: the hub never serves a
		// "no snapshot" decision to a client that waited for this line.
		if err := pipe.Run(); err != nil {
			return fmt.Errorf("control plane: %w", err)
		}
		defer func() { _ = pipe.Stop() }() //ufc:discard report below prints the final state
		r := pipe.Report()
		fmt.Printf("control plane serving %s (slot 0: %d iterations)\n", *topoSpec, r.ColdIterations)
	}

	if reg != nil {
		hub.RegisterMetrics(reg, telemetry.L("component", "hub"))
		srvOpts := telemetry.ServerOptions{Trace: traceReg.Handler()}
		if pipe != nil {
			// A serving hub is ready once a snapshot has been published;
			// plain forwarding hubs are ready as soon as they listen.
			router := pipe.Router()
			srvOpts.Ready = func() bool { return router.Current() != nil }
		}
		msrv, err := telemetry.StartServerOpts(*metricsAddr, reg, srvOpts)
		if err != nil {
			return err
		}
		defer func() { _ = msrv.Close() }() //ufc:discard process is exiting; nothing to salvage from the listener
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (pprof at /debug/pprof/, traces at /debug/ufc/trace)\n", msrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := hub.Stats()
	fmt.Printf("shutting down: forwarded %d msgs / %d bytes, %d flushes (avg batch %.1f, max %d)\n",
		st.MessagesSent, st.BytesSent, st.Flushes, st.AvgBatch(), st.MaxBatch)
	if pipe != nil {
		r := pipe.Report()
		fmt.Printf("control plane: %d solves (%d warm avg %.0f iters, %d cold avg %.0f iters), cache %d hits / %d misses, %d decisions\n",
			r.Solves, r.WarmSolves, r.WarmPerSolve(), r.ColdSolves, r.ColdPerSolve(), r.CacheHits, r.CacheMisses, st.DecisionsAnswered)
	}
	return nil
}

// newServePipeline validates the -serve flag set and builds the rolling
// horizon pipeline (idle; the caller starts it).
func newServePipeline(topoSpec string, seed int64, slotCycle, cacheSize, maxIters, workers int, interval time.Duration, reg *telemetry.Registry, tracer *tracing.Recorder) (*controlplane.Pipeline, error) {
	if topoSpec == "" {
		return nil, fmt.Errorf("-serve requires -topology \"N,M,R\"")
	}
	spec, err := experiments.ParseTopology(topoSpec)
	if err != nil {
		return nil, err
	}
	if slotCycle < 0 {
		return nil, fmt.Errorf("-slot-cycle %d: must be >= 0", slotCycle)
	}
	if cacheSize < 0 {
		return nil, fmt.Errorf("-cache-size %d: must be >= 0", cacheSize)
	}
	if maxIters < 0 {
		return nil, fmt.Errorf("-maxiters %d: must be >= 0", maxIters)
	}
	if interval < 0 {
		return nil, fmt.Errorf("-slot-interval %v: must be >= 0", interval)
	}
	st, err := experiments.NewSyntheticTopology(spec, seed)
	if err != nil {
		return nil, err
	}
	solver := core.Options{
		Workers:       workers,
		MaxIterations: maxIters,
		Tolerance:     core.OneServerTolerance(st.Instance(seed)),
	}
	if spec.Regions > 1 {
		solver.SparsityCutoff = st.CutoffSec
	}
	return controlplane.New(controlplane.Config{
		Instance: func(slot int64) *core.Instance {
			if slotCycle > 0 {
				slot %= int64(slotCycle)
			}
			return st.SlotInstance(seed, slot)
		},
		Solver:       solver,
		WarmStart:    true,
		CacheSize:    cacheSize,
		Quantum:      1e-3,
		SlotInterval: interval,
		Metrics:      reg,
		Tracer:       tracer,
	})
}
