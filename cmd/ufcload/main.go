// Command ufcload drives a control-plane hub (ufchub -serve) with an
// open-loop stream of routing lookups and reports decision latency,
// achieved throughput and solve freshness. Each connection multiplexes
// the traffic of many simulated users: requests are sent on a fixed
// schedule derived from -rps regardless of response progress (open loop),
// so queueing delay shows up in the latency distribution instead of
// silently throttling the offered load.
//
//	ufcload -addr 127.0.0.1:7070 -conns 4 -rps 20000 -duration 10s
//
// CI gates latency and cache behaviour directly:
//
//	ufcload -addr ... -duration 2s -max-p99 50ms -min-cache-hits 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/distsim"
	"repro/internal/netcfg"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ufcload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ufcload", flag.ContinueOnError)
	addr := fs.String("addr", "", "control-plane hub address (required)")
	conns := fs.Int("conns", 4, "concurrent connections")
	rps := fs.Int("rps", 5000, "aggregate offered requests per second (open loop)")
	duration := fs.Duration("duration", 5*time.Second, "load duration")
	seed := fs.Int64("seed", 1, "workload randomness seed (front-end choice and routing entropy)")
	maxP99 := fs.Duration("max-p99", 0, "fail if p99 decision latency exceeds this (0 disables)")
	minCacheHits := fs.Uint64("min-cache-hits", 0, "fail if the server reports fewer memo-cache hits")
	traceSample := fs.Int("trace-sample", 0, "trace every Nth lookup end-to-end and report exemplar trace ids at p99/p999 (0 disables)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics, health probes and /debug/ufc/trace on this address")
	var sec netcfg.Flags
	sec.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sec.Validate(); err != nil {
		return err
	}
	if *conns < 1 || *rps < 1 || *duration <= 0 {
		return fmt.Errorf("need -conns >= 1, -rps >= 1 and -duration > 0 (got %d, %d, %v)", *conns, *rps, *duration)
	}
	if *addr == "" {
		return errors.New("-addr is required")
	}

	// Optional observability sidecar: a tracing ring when sampling is on,
	// and a metrics/health server when an address is given. Neither alters
	// the load schedule or the text report's existing lines.
	var lc loadConfig
	security, err := sec.ClientSecurity()
	if err != nil {
		return err
	}
	lc.security = security
	var traceReg *tracing.Registry
	if *traceSample > 0 {
		traceReg = tracing.NewRegistry()
		lc.tracer = traceReg.Recorder(tracing.Config{Component: "loadgen", IDs: tracing.NewIDSource(*seed), SampleEvery: uint64(*traceSample)})
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "ufcload")
		lc.hist = reg.Histogram("ufc_load_decide_latency_seconds",
			"Client-observed decision latency of answered lookups.",
			telemetry.ExponentialBuckets(1e-6, 2, 20), telemetry.L("component", "loadgen"))
		srvOpts := telemetry.ServerOptions{}
		if traceReg != nil {
			srvOpts.Trace = traceReg.Handler()
		}
		msrv, err := telemetry.StartServerOpts(*metricsAddr, reg, srvOpts)
		if err != nil {
			return err
		}
		defer func() { _ = msrv.Close() }() //ufc:discard process is exiting; nothing to salvage from the listener
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", msrv.Addr())
	}

	res, stats, err := runLoad(*addr, *conns, *rps, *duration, *seed, lc)
	if err != nil {
		return err
	}
	fmt.Printf("topology %dx%d, slot %d: %d sent, %d answered (%d unavailable, %d unanswered)\n",
		stats.M, stats.N, stats.Slot, res.Sent, res.Answered, res.Unavailable, res.Sent-res.Answered)
	fmt.Printf("latency p50 %v  p99 %v  p999 %v\n",
		time.Duration(res.P50Ns), time.Duration(res.P99Ns), time.Duration(res.P999Ns))
	if lc.tracer != nil {
		fmt.Printf("exemplar traces p99 %s  p999 %s (fetch via /debug/ufc/trace?trace=ID on the hub)\n",
			res.P99Trace, res.P999Trace)
	}
	fmt.Printf("achieved %.0f rps (offered %d), max snapshot age %v\n",
		res.AchievedRPS, *rps, time.Duration(res.MaxAgeNanos))
	fmt.Printf("server: %d solves (%d warm avg %.0f iters, %d cold avg %.0f iters), cache %d hits / %d misses\n",
		stats.Solves, stats.WarmSolves, stats.WarmPerSolve(), stats.ColdSolves, stats.ColdPerSolve(),
		stats.CacheHits, stats.CacheMisses)
	if *maxP99 > 0 && res.P99Ns > maxP99.Nanoseconds() {
		return fmt.Errorf("p99 %v exceeds -max-p99 %v", time.Duration(res.P99Ns), *maxP99)
	}
	if stats.CacheHits < *minCacheHits {
		return fmt.Errorf("server reports %d cache hits, want >= %d", stats.CacheHits, *minCacheHits)
	}
	if res.Answered == 0 {
		return errors.New("no lookups were answered")
	}
	return nil
}

// loadResult aggregates one load run.
type loadResult struct {
	Sent        uint64
	Answered    uint64
	Unavailable uint64
	AchievedRPS float64
	P50Ns       int64
	P99Ns       int64
	P999Ns      int64
	MaxAgeNanos int64
	// Exemplar trace ids nearest the p99/p999 observations (zero when
	// tracing is off or no traced request landed in the tail).
	P99Trace  tracing.TraceID
	P999Trace tracing.TraceID
}

// loadConfig is the optional observability and transport security
// attached to a load run: a recorder that samples end-to-end request
// traces, a histogram fed the same latencies as the exact percentile
// arrays, and the dial-side security block. All are nil-safe/zero off
// switches — a zero loadConfig reproduces the bare run byte for byte.
type loadConfig struct {
	tracer   *tracing.Recorder
	hist     *telemetry.Histogram
	security distsim.SecurityConfig
}

// connState is one connection's request ledger. Send and receive sides
// run on different goroutines, so both timestamp arrays are accessed
// atomically; the request sequence number doubles as the array index.
// traceHi/traceLo hold the sampled request's trace and root-span ids
// (zero = untraced), atomically for the same reason.
type connState struct {
	client    *distsim.LookupClient
	sendNanos []int64
	latNanos  []int64
	traceHi   []uint64
	traceLo   []uint64
	answered  atomic.Uint64
	unavail   atomic.Uint64
	maxAge    atomic.Int64
}

// runLoad drives addr with conns×(rps/conns) open-loop lookups for the
// given duration and collects exact latency percentiles. The final stats
// record comes from the server itself (cpstats record).
func runLoad(addr string, conns, rps int, duration time.Duration, seed int64, lc loadConfig) (*loadResult, controlplane.Stats, error) {
	var zero controlplane.Stats
	total := int(float64(rps) * duration.Seconds())
	if total < 1 {
		total = 1
	}
	states := make([]*connState, conns)
	for c := range states {
		per := total / conns
		if c < total%conns {
			per++
		}
		cs := &connState{sendNanos: make([]int64, per), latNanos: make([]int64, per)}
		if lc.tracer != nil {
			cs.traceHi = make([]uint64, per)
			cs.traceLo = make([]uint64, per)
		}
		ep, err := distsim.Dial(context.Background(), distsim.DialConfig{
			Addr:       addr,
			LookupName: fmt.Sprintf("lg-%d", c),
			Security:   lc.security,
			OnDecision: func(d distsim.Decision) {
				seq := d.ReqID
				if seq >= uint64(len(cs.sendNanos)) {
					return
				}
				if !d.OK {
					cs.unavail.Add(1)
					return
				}
				sent := atomic.LoadInt64(&cs.sendNanos[seq])
				if sent == 0 {
					return
				}
				now := time.Now().UnixNano()
				atomic.StoreInt64(&cs.latNanos[seq], now-sent)
				if lc.hist != nil {
					lc.hist.Observe(float64(now-sent) / 1e9)
				}
				if lc.tracer != nil {
					tc := tracing.Context{
						Trace: tracing.TraceID(atomic.LoadUint64(&cs.traceHi[seq])),
						Span:  tracing.SpanID(atomic.LoadUint64(&cs.traceLo[seq])),
					}
					if tc.Valid() {
						lc.tracer.RecordSpan(tc, "load.decide", sent, now,
							tracing.I64("req", int64(seq)), tracing.I64("dc", int64(d.DC)))
					}
				}
				for {
					cur := cs.maxAge.Load()
					if d.AgeNanos <= cur || cs.maxAge.CompareAndSwap(cur, d.AgeNanos) {
						break
					}
				}
				cs.answered.Add(1)
			},
		})
		if err != nil {
			return nil, zero, err
		}
		cs.client = ep.(*distsim.LookupClient)
		states[c] = cs
	}
	defer func() {
		for _, cs := range states {
			_ = cs.client.Close() //ufc:discard teardown after measurement
		}
	}()

	// The server tells us the front-end count before any lookup is sent.
	pre, err := queryStats(states[0].client)
	if err != nil {
		return nil, zero, err
	}
	if pre.M < 1 {
		return nil, zero, fmt.Errorf("server reports %d front-ends", pre.M)
	}

	var sent atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for c, cs := range states {
		wg.Add(1)
		go func(c int, cs *connState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for k := range cs.sendNanos {
				// Open loop: request k of connection c is due at its
				// schedule slot whatever the responses are doing.
				due := start.Add(time.Duration(int64(k)*int64(conns)+int64(c)) * time.Second / time.Duration(rps))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				fe := uint32(rng.Intn(pre.M))
				u := rng.Uint64()
				var tc tracing.Context
				if lc.tracer != nil {
					// The recorder's head sampler decides which requests get
					// a trace; unsampled ones yield a zero context and a
					// byte-identical untraced lookup on the wire.
					sp := lc.tracer.Root("load.request")
					sp.Attr("conn", int64(c))
					sp.Attr("req", int64(k))
					tc = sp.Context()
					atomic.StoreUint64(&cs.traceHi[k], uint64(tc.Trace))
					atomic.StoreUint64(&cs.traceLo[k], uint64(tc.Span))
					sp.End()
				}
				atomic.StoreInt64(&cs.sendNanos[k], time.Now().UnixNano())
				if err := cs.client.LookupTraced(fe, uint64(k), u, tc); err != nil {
					return
				}
				sent.Add(1)
			}
		}(c, cs)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Grace period for in-flight responses.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var pending bool
		for _, cs := range states {
			if cs.answered.Load()+cs.unavail.Load() < uint64(len(cs.sendNanos)) {
				pending = true
			}
		}
		if !pending {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	post, err := queryStats(states[0].client)
	if err != nil {
		return nil, zero, err
	}

	res := &loadResult{Sent: sent.Load()}
	var lats []int64
	var traces []tracing.TraceID
	for _, cs := range states {
		res.Answered += cs.answered.Load()
		res.Unavailable += cs.unavail.Load()
		if age := cs.maxAge.Load(); age > res.MaxAgeNanos {
			res.MaxAgeNanos = age
		}
		for i := range cs.latNanos {
			if l := atomic.LoadInt64(&cs.latNanos[i]); l > 0 {
				lats = append(lats, l)
				if cs.traceHi != nil {
					traces = append(traces, tracing.TraceID(atomic.LoadUint64(&cs.traceHi[i])))
				}
			}
		}
	}
	res.AchievedRPS = float64(res.Answered) / elapsed.Seconds()
	if len(lats) > 0 {
		if traces != nil {
			// Keep the trace ids aligned with their latencies through the
			// sort so the tail exemplars can be looked up afterwards.
			idx := make([]int, len(lats))
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(i, j int) bool { return lats[idx[i]] < lats[idx[j]] })
			sortedLats := make([]int64, len(lats))
			sortedTraces := make([]tracing.TraceID, len(lats))
			for i, k := range idx {
				sortedLats[i] = lats[k]
				sortedTraces[i] = traces[k]
			}
			lats, traces = sortedLats, sortedTraces
			res.P99Trace = exemplarAt(traces, percentileIdx(len(lats), 0.99))
			res.P999Trace = exemplarAt(traces, percentileIdx(len(lats), 0.999))
		} else {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		}
		res.P50Ns = lats[percentileIdx(len(lats), 0.50)]
		res.P99Ns = lats[percentileIdx(len(lats), 0.99)]
		res.P999Ns = lats[percentileIdx(len(lats), 0.999)]
	}
	return res, post, nil
}

func queryStats(c *distsim.LookupClient) (controlplane.Stats, error) {
	vals, err := c.QueryStats(5 * time.Second)
	if err != nil {
		return controlplane.Stats{}, fmt.Errorf("stats query: %w", err)
	}
	return controlplane.ParseStatsPayload(vals)
}

// percentileIdx returns the nearest-rank index of the p-quantile in a
// sorted array of n observations.
func percentileIdx(n int, p float64) int {
	k := int(p*float64(n)+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// exemplarAt returns the trace id at or nearest below the given index —
// under sampling most observations carry no trace, so walk down (toward
// faster requests, which are plentiful) and then up for a non-zero id.
func exemplarAt(traces []tracing.TraceID, idx int) tracing.TraceID {
	for i := idx; i >= 0; i-- {
		if traces[i] != 0 {
			return traces[i]
		}
	}
	for i := idx + 1; i < len(traces); i++ {
		if traces[i] != 0 {
			return traces[i]
		}
	}
	return 0
}
