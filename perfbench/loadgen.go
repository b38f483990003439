package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/distsim"
)

// loadGen is the open-loop lookup generator: one goroutine sends lookups
// on a fixed schedule over at most maxProcs client connections and never
// waits for a reply, so a stall anywhere shows in the latency of every
// lookup sent during it. Latency is timed from the actual send to the
// reply; how late each send ran behind its schedule is recorded apart
// (the lag), because sub-millisecond sleeps wake late by about as much as
// the service time being measured. The per-request records are reused
// from step to step, so the generator allocates nothing while it runs and
// never triggers a collection of its own.
type loadGen struct {
	base    time.Time
	clients []*distsim.LookupClient
	m       int // front-ends
	rng     *rand.Rand
	nextID  uint64
	cur     atomic.Pointer[loadStep]
	decider *timedDecider
	step    loadStep
}

// loadStep holds one fixed-rate step's per-request records, indexed by
// request id − first.
type loadStep struct {
	first    uint64
	rate     float64
	start    int64 // ns since base
	send     []int64
	callNs   []int64
	lag      []int64
	fe       []uint32
	u        []uint64
	recv     []atomic.Int64 // reply receipt, ns since base; 0 = none
	dc       []uint32
	slot     []uint32
	ok       []bool
	answered atomic.Int64
}

// reset prepares the records for n lookups, growing them only when a
// step is larger than any before.
func (st *loadStep) reset(first uint64, rate float64, n int) {
	if cap(st.send) < n {
		st.send, st.callNs, st.lag = make([]int64, n), make([]int64, n), make([]int64, n)
		st.fe, st.u, st.recv = make([]uint32, n), make([]uint64, n), make([]atomic.Int64, n)
		st.dc, st.slot, st.ok = make([]uint32, n), make([]uint32, n), make([]bool, n)
	}
	st.send, st.callNs, st.lag = st.send[:n], st.callNs[:n], st.lag[:n]
	st.fe, st.u, st.recv = st.fe[:n], st.u[:n], st.recv[:n]
	st.dc, st.slot, st.ok = st.dc[:n], st.slot[:n], st.ok[:n]
	for i := range st.recv {
		st.recv[i].Store(0)
	}
	st.first, st.rate = first, rate
	st.answered.Store(0)
}

func newLoadGen(seed int64, m int, dec *timedDecider) *loadGen {
	return &loadGen{base: time.Now(), m: m, rng: rand.New(rand.NewSource(seed)), nextID: 1, decider: dec}
}

// onDecision is every client's reply callback (client read goroutines).
// A reply to no request of the current step arrived after its step gave
// up waiting; that lookup already counts as unanswered.
func (g *loadGen) onDecision(d distsim.Decision) {
	now := time.Since(g.base).Nanoseconds()
	st := g.cur.Load()
	if st == nil || d.ReqID < st.first || d.ReqID-st.first >= uint64(len(st.recv)) {
		return
	}
	k := d.ReqID - st.first
	st.dc[k], st.slot[k], st.ok[k] = d.DC, uint32(d.Slot), d.OK
	st.recv[k].Store(now)
	st.answered.Add(1)
}

// run offers rate lookups per second for dur and waits (up to drain) for
// the replies. The returned records are valid until the next run.
func (g *loadGen) run(rate float64, dur, drain time.Duration) (*loadStep, error) {
	n := max(int(rate*dur.Seconds()), 1)
	st := &g.step
	st.reset(g.nextID, rate, n)
	g.nextID += uint64(n)
	if g.decider != nil {
		g.decider.reset(n)
	}
	g.cur.Store(st)
	interval := float64(time.Second) / rate
	start := time.Since(g.base).Nanoseconds()
	st.start = start
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		now := time.Since(g.base).Nanoseconds()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = time.Since(g.base).Nanoseconds()
		}
		fe := uint32(g.rng.Intn(g.m))
		u := g.rng.Uint64()
		st.fe[i], st.u[i] = fe, u
		st.send[i] = now
		st.lag[i] = now - due
		if err := g.clients[i%len(g.clients)].Lookup(fe, st.first+uint64(i), u); err != nil {
			return nil, fmt.Errorf("lookup %d: %w", st.first+uint64(i), err)
		}
		st.callNs[i] = time.Since(g.base).Nanoseconds() - now
	}
	limit := time.Now().Add(drain)
	for st.answered.Load() < int64(n) && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
	}
	g.cur.Store(nil) // the step's records are final
	return st, nil
}

// appendLatenciesUs appends the answered lookups' latencies (µs) to dst.
func (st *loadStep) appendLatenciesUs(dst []float64) []float64 {
	for i := range st.recv {
		if r := st.recv[i].Load(); r != 0 {
			dst = append(dst, float64(r-st.send[i])/1e3)
		}
	}
	return dst
}

// achievedRate is answered lookups per second from the step's first
// scheduled send to its last reply: below the offered rate when the
// generator fell behind or a backlog grew.
func (st *loadStep) achievedRate() float64 {
	var last int64
	for i := range st.recv {
		last = max(last, st.recv[i].Load())
	}
	if last <= st.start {
		return 0
	}
	return float64(st.answered.Load()) / (float64(last-st.start) / 1e9)
}

// passes reports whether the step met the serving limit: p99 within
// limitUs, nothing lost, and at least 99% of the offered rate achieved.
func (st *loadStep) passes(limitUs float64) bool {
	if st.answered.Load() != int64(len(st.recv)) {
		return false
	}
	if quantile(st.appendLatenciesUs(nil), 0.99) > limitUs {
		return false
	}
	return st.achievedRate() >= 0.99*st.rate
}

// check validates every lookup of the step against the published
// snapshots.
func (st *loadStep) check(snaps map[int64]*controlplane.Snapshot, checks *checkTally, w []float64) {
	for i := range st.recv {
		rec := lookupRecord{fe: st.fe[i]}
		if st.recv[i].Load() != 0 {
			rec.answered = true
			rec.d = distsim.Decision{ReqID: st.first + uint64(i), DC: st.dc[i], Slot: uint64(st.slot[i]), OK: st.ok[i]}
		}
		checks.record(checkLookup(st.first+uint64(i), rec, snaps, w))
	}
}

// spans records each answered lookup of the step as a bench.op root with
// the client call and the decide call as children.
func (st *loadStep) spans(rec *recorder, dec *timedDecider) {
	byU := dec.calls()
	for i := range st.recv {
		r := st.recv[i].Load()
		if r == 0 {
			continue
		}
		trace := rec.reserve()
		root := rec.addNanos(0, trace, 0, primaryOp, st.send[i], r, false)
		rec.addNanos(0, trace, root, "distsim.Lookup", st.send[i], st.send[i]+st.callNs[i], false)
		if iv, ok := byU[st.u[i]]; ok {
			rec.addNanos(0, trace, root, "controlplane.Decide", iv[0], iv[1], false)
		}
	}
}

// phase pools the lookups of one kind of step (A or B) across a run.
type phase struct {
	lat, call, lag []float64 // µs, ns, µs
	chunkP99       []float64 // µs, one per absorbed step
	decideNs       []float64 // traced runs
	wire           wireCounters
	w              []float64 // weight scratch for the checks
}

// newPhase preallocates the pooled records for about n lookups.
func newPhase(n int) *phase {
	return &phase{
		lat: make([]float64, 0, n), call: make([]float64, 0, n), lag: make([]float64, 0, n),
		w: make([]float64, fleetSpec.N),
	}
}

// run offers the nominal rate for dur and counts the step's wire work.
// The caller absorbs the returned step once every snapshot it may name
// has been recorded.
func (ph *phase) run(srv *server, dur time.Duration) (*loadStep, error) {
	w0 := srv.transport()
	st, err := srv.gen.run(nominalRPS, dur, drainWait)
	if err != nil {
		return nil, err
	}
	w1 := srv.transport()
	ph.wire.flushes += w1.flushes - w0.flushes
	ph.wire.records += w1.records - w0.records
	ph.wire.bytes += w1.bytes - w0.bytes
	return st, nil
}

// absorb checks the step and adds its lookups to the phase.
func (ph *phase) absorb(st *loadStep, snaps map[int64]*controlplane.Snapshot, checks *checkTally, dec *timedDecider) {
	st.check(snaps, checks, ph.w)
	before := len(ph.lat)
	ph.lat = st.appendLatenciesUs(ph.lat)
	ph.chunkP99 = append(ph.chunkP99, quantile(ph.lat[before:], 0.99))
	for i := range st.callNs {
		ph.call = append(ph.call, float64(st.callNs[i]))
		ph.lag = append(ph.lag, float64(st.lag[i])/1e3)
	}
	if dec != nil {
		for _, iv := range dec.calls() {
			ph.decideNs = append(ph.decideNs, float64(iv[1]-iv[0]))
		}
	}
}

// timedDecider wraps the pipeline's Decide with a timer (traced runs
// only), logging each call's entropy and interval.
type timedDecider struct {
	p    *controlplane.Pipeline
	base time.Time
	next atomic.Int64
	u    []uint64
	iv   [][2]int64
}

// reset starts a fresh log for a step of n lookups. It runs between
// steps, once every lookup of the previous step has been answered.
func (t *timedDecider) reset(n int) {
	if len(t.u) < n {
		t.u, t.iv = make([]uint64, n), make([][2]int64, n)
	}
	t.next.Store(0)
}

// Decide implements distsim.Decider.
func (t *timedDecider) Decide(fe uint32, u uint64) (dc uint32, slot uint64, ageNanos int64, ok bool) {
	t0 := time.Since(t.base).Nanoseconds()
	dc, slot, ageNanos, ok = t.p.Decide(fe, u)
	t1 := time.Since(t.base).Nanoseconds()
	if k := t.next.Add(1) - 1; k < int64(len(t.u)) {
		t.u[k], t.iv[k] = u, [2]int64{t0, t1}
	}
	return dc, slot, ageNanos, ok
}

// StatsPayload implements distsim.Decider.
func (t *timedDecider) StatsPayload(dst []float64) []float64 { return t.p.StatsPayload(dst) }

// calls returns the current step's decide intervals by entropy.
func (t *timedDecider) calls() map[uint64][2]int64 {
	n := min(t.next.Load(), int64(len(t.u)))
	out := make(map[uint64][2]int64, n)
	for k := int64(0); k < n; k++ {
		out[t.u[k]] = t.iv[k]
	}
	return out
}

// server is a serving hub over a deployment's pipeline with its lookup
// clients.
type server struct {
	hub     *distsim.TCPHub
	clients []*distsim.LookupClient
	gen     *loadGen
	dec     *timedDecider
}

// serve starts a hub answering lookups from d's pipeline and dials the
// lookup clients. rec, when non-nil, records the calls as spans of trace.
func serve(d *deployment, seed int64, rec *recorder, trace int64) (*server, error) {
	ctx := context.Background()
	s := &server{}
	var decider distsim.Decider = d.p
	if rec != nil {
		s.dec = &timedDecider{p: d.p, base: rec.base}
		decider = s.dec
	}
	t0 := time.Now()
	hub, err := distsim.Listen(ctx, distsim.ListenConfig{Addr: "127.0.0.1:0", Decider: decider})
	rec.add(0, trace, 0, "distsim.Listen", t0, time.Now())
	if err != nil {
		return nil, err
	}
	s.hub = hub
	s.gen = newLoadGen(seed, d.p.Router().Current().M, s.dec)
	if rec != nil {
		s.gen.base = rec.base
	}
	for k := 0; k < maxProcs; k++ {
		t1 := time.Now()
		ep, err := distsim.Dial(ctx, distsim.DialConfig{
			Addr:       hub.Addr(),
			LookupName: fmt.Sprintf("perfbench-%d", k),
			OnDecision: s.gen.onDecision,
		})
		rec.add(0, trace, 0, "distsim.Dial", t1, time.Now())
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, ep.(*distsim.LookupClient))
	}
	s.gen.clients = s.clients
	return s, nil
}

func (s *server) close() {
	for _, c := range s.clients {
		_ = c.Close() // teardown: nothing is in flight once the steps have drained
	}
	if s.hub != nil {
		_ = s.hub.Close() // teardown: the clients are already closed
	}
}

// wireCounters are the serving path's transport counters. Both sides
// flush and send records (clients the lookups, the hub the decisions);
// bytes are counted once, at the hub, in both directions.
type wireCounters struct {
	flushes, records, bytes uint64
}

func (s *server) transport() wireCounters {
	h := s.hub.Stats()
	w := wireCounters{flushes: h.Flushes, records: h.MessagesSent, bytes: h.BytesSent + h.BytesReceived}
	for _, c := range s.clients {
		cs := c.Stats()
		w.flushes += cs.Flushes
		w.records += cs.MessagesSent
	}
	return w
}
