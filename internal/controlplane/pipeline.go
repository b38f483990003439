package controlplane

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracing"
)

// Config parameterizes a rolling-horizon solve pipeline.
type Config struct {
	// Instance yields slot t's problem instance (prices, demand, carbon).
	// It is called once per slot from the pipeline goroutine. Required.
	Instance func(slot int64) *core.Instance
	// Solver configures the shared engine. The pipeline attaches its own
	// per-slot bookkeeping; Options.Probe may additionally be set by the
	// caller for exposition.
	Solver core.Options
	// WarmStart seeds each slot's solve with the previous converged
	// iterate (the rolling-horizon mode). When false every slot starts
	// from the zero state — the cold baseline the bench compares against.
	WarmStart bool
	// CacheSize bounds the memoization cache (entries); 0 disables it.
	CacheSize int
	// Quantum is the relative input quantization of the cache key
	// (default 1e-3: inputs agreeing to 0.1% of their scale share a key).
	Quantum float64
	// SlotInterval paces Run: each slot starts this long after the
	// previous one began (overruns start immediately). Zero free-runs.
	SlotInterval time.Duration
	// Metrics, when non-nil, is the registry the pipeline registers its
	// instruments on at construction.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records a span per slot solve (warm/cold,
	// iterations, cache outcome as attributes) and a child span per traced
	// routing decision. Nil disables tracing at zero cost.
	Tracer *tracing.Recorder
}

// Report is a point-in-time summary of the pipeline's work, consumed by
// the wire stats record and the bench tooling.
type Report struct {
	Slot           int64 // last published slot (-1 before the first)
	Solves         uint64
	WarmSolves     uint64
	ColdSolves     uint64
	WarmIterations uint64
	ColdIterations uint64
	Unconverged    uint64
	CacheHits      uint64
	CacheMisses    uint64
	SolveNanos     uint64 // cumulative solve wall-clock
	AgeNanos       int64  // current snapshot staleness (-1 if none)
}

// WarmPerSolve returns the mean iterations of warm-started solves.
func (r Report) WarmPerSolve() float64 {
	if r.WarmSolves == 0 {
		return 0
	}
	return float64(r.WarmIterations) / float64(r.WarmSolves)
}

// ColdPerSolve returns the mean iterations of cold solves.
func (r Report) ColdPerSolve() float64 {
	if r.ColdSolves == 0 {
		return 0
	}
	return float64(r.ColdIterations) / float64(r.ColdSolves)
}

// Pipeline is the write side of the control plane: a single background
// goroutine that ingests per-slot inputs, re-solves on a rolling horizon
// warm-started from the previous converged iterate, and publishes each
// slot's routing table to the Router. Solving never blocks a lookup —
// the Router swap is one atomic store at the end of each slot.
type Pipeline struct {
	cfg    Config
	router Router
	// slotMu serialises every slot — from the Run loop or a direct
	// RunSlot — and Stop's engine release, so the engine, the iterate and
	// the per-slot scratch below have one owner at a time.
	slotMu sync.Mutex
	eng    *core.Engine
	state  *core.State
	cache  *memoCache
	digest []byte // reused key scratch

	slot int64

	solves      telemetry.Counter
	warmSolves  telemetry.Counter
	coldSolves  telemetry.Counter
	warmIters   telemetry.Counter
	coldIters   telemetry.Counter
	unconverged telemetry.Counter
	cacheHits   telemetry.Counter
	cacheMisses telemetry.Counter
	solveNanos  telemetry.Counter
	staleness   telemetry.Gauge // seconds, sampled at each slot boundary
	lastPublish telemetry.Gauge // unix seconds of the last publish
	solveDur    *telemetry.Histogram

	loopStarted bool
	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
	runErr      error
}

// New validates cfg, builds the shared engine on slot 0's instance and
// returns an idle pipeline (no goroutine yet; call Run or step it with
// RunSlot).
func New(cfg Config) (*Pipeline, error) {
	if cfg.Instance == nil {
		return nil, errors.New("controlplane: Config.Instance is required")
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 1e-3
	}
	inst0 := cfg.Instance(0)
	eng, err := core.NewEngine(inst0, cfg.Solver)
	if err != nil {
		return nil, fmt.Errorf("controlplane: engine: %w", err)
	}
	p := &Pipeline{
		cfg:      cfg,
		eng:      eng,
		state:    core.NewState(inst0.Cloud.M(), inst0.Cloud.N()),
		cache:    newMemoCache(cfg.CacheSize),
		solveDur: telemetry.NewHistogram(telemetry.ExponentialBuckets(1e-3, 4, 12)),
		slot:     -1,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		reg.RegisterCounter("ufc_cp_solves_total", "control-plane slot solves", &p.solves)
		reg.RegisterCounter("ufc_cp_warm_solves_total", "slot solves seeded from the previous iterate", &p.warmSolves)
		reg.RegisterCounter("ufc_cp_cold_solves_total", "slot solves from the zero state", &p.coldSolves)
		reg.RegisterCounter("ufc_cp_warm_iterations_total", "ADM-G iterations across warm-started slot solves", &p.warmIters)
		reg.RegisterCounter("ufc_cp_cold_iterations_total", "ADM-G iterations across cold slot solves", &p.coldIters)
		reg.RegisterCounter("ufc_cp_unconverged_total", "slot solves that exhausted the iteration budget", &p.unconverged)
		reg.RegisterCounter("ufc_cp_cache_hits_total", "slots served from the solve memoization cache", &p.cacheHits)
		reg.RegisterCounter("ufc_cp_cache_misses_total", "slots that required a fresh solve", &p.cacheMisses)
		reg.RegisterCounter("ufc_cp_solve_nanoseconds_total", "cumulative slot solve wall-clock", &p.solveNanos)
		reg.RegisterGauge("ufc_cp_snapshot_age_seconds", "serving snapshot staleness at the last slot boundary", &p.staleness)
		reg.RegisterGauge("ufc_cp_last_publish_unix_seconds", "wall-clock instant of the last snapshot publish", &p.lastPublish)
		reg.RegisterHistogram("ufc_cp_solve_seconds", "slot solve wall-clock", p.solveDur)
	}
	return p, nil
}

// Router returns the read side served by this pipeline.
func (p *Pipeline) Router() *Router { return &p.router }

// Report snapshots the pipeline's counters.
func (p *Pipeline) Report() Report {
	return Report{
		Slot:           p.router.slotOrMinusOne(),
		Solves:         p.solves.Load(),
		WarmSolves:     p.warmSolves.Load(),
		ColdSolves:     p.coldSolves.Load(),
		WarmIterations: p.warmIters.Load(),
		ColdIterations: p.coldIters.Load(),
		Unconverged:    p.unconverged.Load(),
		CacheHits:      p.cacheHits.Load(),
		CacheMisses:    p.cacheMisses.Load(),
		SolveNanos:     p.solveNanos.Load(),
		AgeNanos:       p.router.AgeNanos(),
	}
}

func (r *Router) slotOrMinusOne() int64 {
	if s := r.cur.Load(); s != nil {
		return s.Slot
	}
	return -1
}

// RunSlot ingests and publishes exactly one slot. It is the pipeline's
// unit of work: Run calls it on the pacing loop, tests and the bench
// runner call it directly. Concurrent calls, including the Run loop's,
// take turns: each slot runs to completion before the next begins.
func (p *Pipeline) RunSlot() error {
	p.slotMu.Lock()
	defer p.slotMu.Unlock()
	return p.runSlot()
}

func (p *Pipeline) runSlot() error {
	p.slot++
	slot := p.slot
	inst := p.cfg.Instance(slot)

	// One root span per slot, cached or solved. Spans are observability
	// only: the solve below never reads them, so instrumented slots stay
	// bit-identical to uninstrumented ones.
	sp := p.cfg.Tracer.Root("cp.slot_solve")
	sp.Attr("cpslot", slot)

	var key string
	if p.cache != nil {
		p.digest, key = digestInstance(p.digest, inst, p.cfg.Quantum)
		if hit, ok := p.cache.get(key); ok {
			info := hit.Info
			info.Cached = true
			p.cacheHits.Inc()
			p.publish(hit.clone(slot, info))
			sp.Attr("cached", 1)
			sp.Attr("iterations", int64(info.Iterations))
			sp.End()
			return nil
		}
		p.cacheMisses.Inc()
	}

	if err := p.eng.Reset(inst); err != nil {
		return fmt.Errorf("controlplane: slot %d reset: %w", slot, err)
	}
	if m, n := inst.Cloud.M(), inst.Cloud.N(); m != len(p.state.Lambda) || n != len(p.state.Mu) {
		// Topology reshape: the old iterate no longer fits; restart cold.
		p.state = core.NewState(m, n)
	} else if !p.cfg.WarmStart {
		p.state.Zero()
	}
	warm := p.cfg.WarmStart && slot > 0
	t0 := time.Now()
	alloc, _, stats, err := p.eng.SolveState(p.state)
	dur := time.Since(t0)
	if err != nil && !errors.Is(err, core.ErrNotConverged) {
		return fmt.Errorf("controlplane: slot %d solve: %w", slot, err)
	}
	p.solves.Inc()
	p.solveNanos.Add(uint64(dur))
	p.solveDur.Observe(dur.Seconds())
	if warm && stats.WarmStarted {
		p.warmSolves.Inc()
		p.warmIters.Add(uint64(stats.Iterations))
	} else {
		p.coldSolves.Inc()
		p.coldIters.Add(uint64(stats.Iterations))
	}
	if !stats.Converged {
		p.unconverged.Inc()
	}

	snap := NewSnapshot(slot, alloc, SolveInfo{
		Iterations: stats.Iterations,
		Converged:  stats.Converged,
		Residual:   stats.FinalResidual,
		Warm:       warm && stats.WarmStarted,
	})
	p.cache.put(key, snap)
	p.publish(snap)
	sp.Attr("cached", 0)
	sp.Attr("iterations", int64(stats.Iterations))
	if warm && stats.WarmStarted {
		sp.Attr("warm", 1)
	} else {
		sp.Attr("warm", 0)
	}
	if stats.Converged {
		sp.Attr("converged", 1)
	} else {
		sp.Attr("converged", 0)
	}
	sp.End()
	return nil
}

// publish records the outgoing snapshot's final staleness (the bound the
// pipeline is holding) and swaps the new one in.
func (p *Pipeline) publish(s *Snapshot) {
	if age := p.router.AgeNanos(); age >= 0 {
		p.staleness.Set(float64(age) / 1e9)
	}
	p.router.Publish(s)
	p.lastPublish.Set(float64(s.PublishedUnixNanos) / 1e9)
}

// Run starts the background slot loop. Each slot begins SlotInterval
// after the previous one began (immediately on overrun; back-to-back when
// the interval is zero) until Stop. The first solve happens before Run
// returns, so callers observe a live snapshot immediately.
func (p *Pipeline) Run() error {
	began := time.Now()
	if err := p.RunSlot(); err != nil {
		return err
	}
	p.loopStarted = true
	go p.loop(began)
	return nil
}

// loop runs the slots after the first: each begins SlotInterval after
// the previous one began.
func (p *Pipeline) loop(prev time.Time) {
	defer close(p.done)
	for {
		if wait := time.Until(prev.Add(p.cfg.SlotInterval)); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-p.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-p.stop:
				return
			default:
			}
		}
		prev = time.Now()
		if err := p.RunSlot(); err != nil {
			p.runErr = err
			return
		}
	}
}

// Stop halts the slot loop (waiting for any in-flight solve), releases
// the engine and returns the first background error, if any. Idempotent.
// The Router keeps serving the last published snapshot.
func (p *Pipeline) Stop() error {
	p.stopOnce.Do(func() {
		close(p.stop)
	})
	if p.loopStarted {
		<-p.done
	}
	p.slotMu.Lock()
	p.eng.Close()
	p.slotMu.Unlock()
	return p.runErr
}

// CacheLen reports the live memo-cache entry count (tests).
func (p *Pipeline) CacheLen() int { return p.cache.len() }
