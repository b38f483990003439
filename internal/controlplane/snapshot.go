// Package controlplane turns the offline ADM-G solver into a long-lived
// routing control plane: a background pipeline re-solves each slot on a
// rolling horizon (warm-started from the previous converged iterate) and
// publishes the resulting routing table as an immutable snapshot that
// front-end lookups read lock-free. A memoization cache keyed by a
// quantized input digest short-circuits solves for near-identical slots.
//
// The package deliberately sits above internal/core (it drives the solver)
// and below the serving transport (internal/distsim exposes lookups over
// the wire through the Decider interface implemented by Router): it owns
// when to solve, what to publish, and how stale the published table is.
package controlplane

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SolveInfo records how the snapshot's routing table was produced.
type SolveInfo struct {
	Iterations int     // ADM-G iterations the producing solve ran
	Converged  bool    // whether it reached the residual tolerance
	Residual   float64 // final combined relative residual
	Warm       bool    // solve was seeded from the previous slot's iterate
	Cached     bool    // routing came from the memo cache, no solve ran
}

// Snapshot is one immutable published routing table: for every front-end
// a cumulative routing distribution over the datacenters it routes to,
// derived from the slot's converged λ. Snapshots are never mutated after
// Publish — readers hold them across an atomic pointer with no locks.
type Snapshot struct {
	Slot int64 // slot sequence number of the producing solve
	M, N int
	Info SolveInfo
	// PublishedUnixNanos is the wall-clock publish instant; the age of the
	// snapshot (now − published) is the serving staleness.
	PublishedUnixNanos int64

	// The routing table is stored as compact rows holding only each
	// front-end's positive-weight datacenters: row i is the entries
	// start[i] ≤ k < start[i+1], entry k naming datacenter dc[k] with
	// cumulative routing fraction cum[k]. A row's cum never decreases
	// and ends at 1, so a binary search over it inverts a uniform draw
	// into a datacenter pick with the λ-proportional distribution.
	start []int32 // length M+1
	dc    []int32 // length nnz
	cum   []float64
}

// NewSnapshot builds a snapshot from a finalized allocation. Rows with no
// routed load (a zero-demand front-end) fall back to the uniform
// distribution over all N datacenters so every lookup still returns one.
func NewSnapshot(slot int64, alloc *core.Allocation, info SolveInfo) *Snapshot {
	m := len(alloc.Lambda)
	n := len(alloc.MuMW)
	nnz := 0
	for _, row := range alloc.Lambda {
		k := positives(row)
		if k == 0 {
			k = n
		}
		nnz += k
	}
	s := &Snapshot{
		Slot: slot, M: m, N: n, Info: info,
		start: make([]int32, m+1),
		dc:    make([]int32, 0, nnz),
		cum:   make([]float64, 0, nnz),
	}
	for i, row := range alloc.Lambda {
		first := len(s.dc)
		var total float64
		for j, v := range row {
			if v > 0 {
				total += v
				s.dc = append(s.dc, int32(j))
				s.cum = append(s.cum, total)
			}
		}
		if total > 0 {
			c := s.cum[first:]
			inv := 1 / total
			for k := range c {
				c[k] *= inv
			}
			c[len(c)-1] = 1 // guard against rounding leaving the last bound < 1
		} else {
			for j := 0; j < n; j++ {
				s.dc = append(s.dc, int32(j))
				s.cum = append(s.cum, float64(j+1)/float64(n))
			}
		}
		s.start[i+1] = int32(len(s.dc))
	}
	return s
}

// positives counts the entries of row that are > 0.
func positives(row []float64) int {
	k := 0
	for _, v := range row {
		if v > 0 {
			k++
		}
	}
	return k
}

// Weights copies front-end fe's routing distribution (fractions summing
// to 1) into dst, which must have length N; datacenters the row does not
// route to get 0. It exists for tests and report tooling; the serving path
// uses Decide.
func (s *Snapshot) Weights(fe int, dst []float64) {
	for j := range dst[:s.N] {
		dst[j] = 0
	}
	prev := 0.0
	for k := s.start[fe]; k < s.start[fe+1]; k++ {
		dst[s.dc[k]] = s.cum[k] - prev
		prev = s.cum[k]
	}
}

// decide inverts the uniform draw u ∈ [0, 1) through front-end fe's
// cumulative distribution by branch-light binary search over the row's
// entries and returns the datacenter of the entry found. It allocates
// nothing and reads only immutable data.
//
//ufc:hotpath
func (s *Snapshot) decide(fe int, u float64) int {
	lo, hi := int(s.start[fe]), int(s.start[fe+1])-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(s.dc[lo])
}

// uintToUniform maps a uint64 draw onto [0, 1) with 53-bit resolution —
// the standard float64 mantissa trick, so wire clients can send raw
// entropy instead of a float.
//
//ufc:hotpath
func uintToUniform(u uint64) float64 {
	return float64(u>>11) * (1.0 / (1 << 53))
}

// Router is the serving read side of the control plane: an atomic pointer
// to the current snapshot. Publish swaps the pointer; Decide resolves a
// lookup against whatever snapshot is current with zero locks and zero
// allocations. A Router with no published snapshot answers not-ok.
type Router struct {
	cur atomic.Pointer[Snapshot]
}

// Publish stamps s with the current wall clock and makes it the served
// snapshot. The swap is a single atomic pointer store: in-flight Decide
// calls finish against the snapshot they already loaded.
func (r *Router) Publish(s *Snapshot) {
	s.PublishedUnixNanos = time.Now().UnixNano()
	r.cur.Store(s)
}

// Current returns the served snapshot (nil before the first Publish).
func (r *Router) Current() *Snapshot { return r.cur.Load() }

// AgeNanos returns the age of the served snapshot — the serving staleness
// — or -1 before the first Publish.
func (r *Router) AgeNanos() int64 {
	s := r.cur.Load()
	if s == nil {
		return -1
	}
	return time.Now().UnixNano() - s.PublishedUnixNanos
}

// Decide implements the distsim.Decider lookup: it resolves front-end fe
// against the current snapshot using the caller-supplied entropy u. The
// returned slot and age let clients track solve freshness per decision.
// It is the control plane's hottest function: one atomic load, one
// binary search, no locks, no allocations.
//
//ufc:hotpath
func (r *Router) Decide(fe uint32, u uint64) (dc uint32, slot uint64, ageNanos int64, ok bool) {
	s := r.cur.Load()
	if s == nil || int(fe) >= s.M {
		return 0, 0, 0, false
	}
	j := s.decide(int(fe), uintToUniform(u))
	return uint32(j), uint64(s.Slot), time.Now().UnixNano() - s.PublishedUnixNanos, true
}

// clone returns a snapshot sharing s's immutable routing rows but carrying
// a fresh slot/info header — how cache hits republish an old table under a
// new slot without copying the rows.
func (s *Snapshot) clone(slot int64, info SolveInfo) *Snapshot {
	return &Snapshot{Slot: slot, M: s.M, N: s.N, Info: info, start: s.start, dc: s.dc, cum: s.cum}
}

// MaxRowError returns the largest deviation of any row's final cumulative
// bound from 1 — a structural sanity check used by tests.
func (s *Snapshot) MaxRowError() float64 {
	var worst float64
	for i := 0; i < s.M; i++ {
		if d := math.Abs(s.cum[s.start[i+1]-1] - 1); d > worst {
			worst = d
		}
	}
	return worst
}
