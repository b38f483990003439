package distsim_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distsim"
)

// resultHash folds the float64 bits of a distributed result — routing,
// power split, UFC, final residual — and its iteration count into one
// FNV-1a hash.
func resultHash(res *distsim.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, row := range res.Allocation.Lambda {
		put(row...)
	}
	put(res.Allocation.MuMW...)
	put(res.Allocation.NuMW...)
	put(res.Breakdown.UFC, res.Stats.FinalResidual, float64(res.Stats.Iterations))
	return h.Sum64()
}

// TestBitPinDenseRuns pins the float64 bits of a dense distributed solve
// over ChanTransport and of a zero-fault resilient dense solve. Both equal
// the sequential solve, so they share one hash. It was first recorded
// before the dense protocol agents were replaced by the mask-indexed ones,
// which held the agents' arithmetic on a full mask to the old dense
// agents' bit for bit, and re-recorded when the exact piecewise-linear
// λ-step replaced the bisection.
func TestBitPinDenseRuns(t *testing.T) {
	inst := testInstance(t, 1)
	const want = 0x8300af8d0bc61819
	if got := resultHash(runDistributed(t, inst, distsim.ChanOptions{Seed: 1})); got != want {
		t.Errorf("plain dense run hash %#016x, want %#016x", got, uint64(want))
	}
	res := runChaos(t, inst, core.Options{}, &distsim.FaultPlan{Seed: 11}, chaosPolicy())
	if res.Degradation != nil {
		t.Fatalf("zero-fault run degraded: %+v", res.Degradation)
	}
	if got := resultHash(res); got != want {
		t.Errorf("resilient dense run hash %#016x, want %#016x", got, uint64(want))
	}
}

// sentMsg is one transmission seen by scheduleRecorder.
type sentMsg struct {
	to string
	m  distsim.Message
}

// scheduleRecorder wraps a Transport and records every Send per sender,
// in the sender's program order. Agents run concurrently, so only each
// sender's own stream is deterministic, not the interleaving.
type scheduleRecorder struct {
	distsim.Transport
	mu   sync.Mutex
	sent map[string][]sentMsg
}

func newScheduleRecorder(inner distsim.Transport) *scheduleRecorder {
	return &scheduleRecorder{Transport: inner, sent: make(map[string][]sentMsg)}
}

func (r *scheduleRecorder) Send(to string, m distsim.Message) error {
	cp := m
	cp.Payload = append([]float64(nil), m.Payload...)
	r.mu.Lock()
	r.sent[m.From] = append(r.sent[m.From], sentMsg{to: to, m: cp})
	r.mu.Unlock()
	return r.Transport.Send(to, m)
}

// streamHash folds one sender's ordered stream: recipient, kind, iter,
// stop flag, payload float64 bits and trace context of every message.
func streamHash(stream []sentMsg) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range stream {
		h.Write([]byte(s.to))
		put(uint64(s.m.Kind))
		put(uint64(s.m.Iter))
		stop := uint64(0)
		if s.m.Stop {
			stop = 1
		}
		put(stop)
		put(uint64(len(s.m.Payload)))
		for _, x := range s.m.Payload {
			put(math.Float64bits(x))
		}
		put(uint64(s.m.Trace.Trace))
		put(uint64(s.m.Trace.Span))
	}
	return h.Sum64()
}

// scheduleHash folds every sender's stream hash in agent-id order.
func scheduleHash(sent map[string][]sentMsg, ids []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range ids {
		h.Write([]byte(id))
		binary.LittleEndian.PutUint64(buf[:], streamHash(sent[id]))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// recordRun runs one distributed solve over a recorded ChanTransport.
func recordRun(t *testing.T, inst *core.Instance, opts distsim.RunOptions) (*distsim.Result, map[string][]sentMsg) {
	t.Helper()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	rec := newScheduleRecorder(distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{}))
	res, err := distsim.Run(context.Background(), inst, opts, rec)
	_ = rec.Close() //ufc:discard in-process transport; Run already surfaced any failure
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return res, rec.sent
}

// TestBitPinPlainSchedule pins the plain protocol's message schedule: the
// ordered stream of every sender, hashed to the float64 bits, and the
// message count iterations·(2·nnz + 2·(M+N)) + (M+N) finals. A zero-fault
// resilient run, with its retransmissions deduplicated on (from, to, kind,
// iter), must send exactly the same streams plus one final ack from the
// coordinator to every agent.
func TestBitPinPlainSchedule(t *testing.T) {
	sparseInst, sparseOpts := sparseChaosInstance(t)
	cases := []struct {
		name string
		inst *core.Instance
		opts core.Options
		want uint64
	}{
		{"dense", testInstance(t, 1), core.Options{}, 0x89228145e00b2b4e},
		{"sparse-4x4x2", sparseInst, sparseOpts, 0x38264dc6de88e084},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, n := tc.inst.Cloud.M(), tc.inst.Cloud.N()
			ids := distsim.AllAgentIDs(m, n)
			eng, err := core.NewEngine(tc.inst, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			nnz := eng.FeasiblePairs()

			res, plain := recordRun(t, tc.inst, distsim.RunOptions{Solver: tc.opts})
			total := 0
			for _, stream := range plain {
				total += len(stream)
			}
			iters := res.Stats.Iterations
			if want := iters*(2*nnz+2*(m+n)) + m + n; total != want {
				t.Errorf("plain run sent %d messages, want %d·(2·%d+2·%d)+%d = %d",
					total, iters, nnz, m+n, m+n, want)
			}
			if got := scheduleHash(plain, ids); got != tc.want {
				t.Errorf("plain schedule hash %#016x, want %#016x", got, tc.want)
			}

			_, res2 := recordRun(t, tc.inst, distsim.RunOptions{Solver: tc.opts, Resilience: chaosPolicy()})
			type key struct {
				from, to string
				kind     distsim.Kind
				iter     int
			}
			seen := make(map[key]bool)
			dedup := make(map[string][]sentMsg)
			acks := 0
			for from, stream := range res2 {
				for _, s := range stream {
					k := key{from, s.to, s.m.Kind, s.m.Iter}
					if seen[k] {
						continue
					}
					seen[k] = true
					if s.m.Kind == distsim.KindFinalAck {
						if from != "coord" || s.m.Iter != iters {
							t.Errorf("final ack %s -> %s iter %d, want coord at iter %d", from, s.to, s.m.Iter, iters)
						}
						acks++
						continue
					}
					dedup[from] = append(dedup[from], s)
				}
			}
			if acks != m+n {
				t.Errorf("resilient run acked %d finals, want %d", acks, m+n)
			}
			for _, id := range ids {
				if got, want := streamHash(dedup[id]), streamHash(plain[id]); got != want {
					t.Errorf("%s: resilient deduplicated stream (%d msgs) differs from plain (%d msgs)",
						id, len(dedup[id]), len(plain[id]))
				}
			}
		})
	}
}
