package controlplane

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// fleetAllocation solves one slot of the 20-datacenter, 200-front-end
// regional fleet under its region cutoff, the shape whose rows are mostly
// zeros.
func fleetAllocation(t *testing.T) *core.Allocation {
	t.Helper()
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 20, M: 200, Regions: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := st.SlotInstance(7, 3)
	opts := core.Options{Tolerance: core.OneServerTolerance(inst), SparsityCutoff: st.CutoffSec}
	alloc, _, _, err := core.Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

// handAllocation is a 4×5 allocation with interior and trailing zeros, a
// single-datacenter row and a zero-demand row.
func handAllocation() *core.Allocation {
	alloc := core.NewAllocation(4, 5)
	alloc.Lambda[0] = []float64{3, 0, 1, 0, 0}
	alloc.Lambda[1] = []float64{0, 0, 0, 0, 0}
	alloc.Lambda[2] = []float64{0, 0, 0, 7, 0}
	alloc.Lambda[3] = []float64{1e-300, 2, 0, 5, 1}
	return alloc
}

// namedAllocation is one allocation the snapshot tests run over.
type namedAllocation struct {
	name  string
	alloc *core.Allocation
}

func testAllocations(t *testing.T) []namedAllocation {
	t.Helper()
	return []namedAllocation{{"hand", handAllocation()}, {"fleet", fleetAllocation(t)}}
}

func nnz(alloc *core.Allocation) int {
	k := 0
	for _, row := range alloc.Lambda {
		k += positives(row)
	}
	return k
}

// TestSnapshotWeightsRoundTrip: Weights returns each row of the
// allocation normalised to 1, with exact zeros where the row routes
// nothing; a zero-demand row reads back uniform.
func TestSnapshotWeightsRoundTrip(t *testing.T) {
	for _, tc := range testAllocations(t) {
		name, alloc := tc.name, tc.alloc
		s := NewSnapshot(1, alloc, SolveInfo{})
		w := make([]float64, s.N)
		for fe, row := range alloc.Lambda {
			s.Weights(fe, w)
			var total float64
			for _, v := range row {
				total += v
			}
			for j, v := range row {
				want := v / total
				if total == 0 {
					want = 1 / float64(s.N)
				}
				if v == 0 && total > 0 {
					if w[j] != 0 {
						t.Fatalf("%s: fe %d dc %d: weight %g, want exactly 0", name, fe, j, w[j])
					}
					continue
				}
				if math.Abs(w[j]-want) > 1e-12 {
					t.Fatalf("%s: fe %d dc %d: weight %.17g, want %.17g", name, fe, j, w[j], want)
				}
			}
		}
		if e := s.MaxRowError(); e != 0 {
			t.Fatalf("%s: MaxRowError %g, want 0", name, e)
		}
	}
}

// TestSnapshotDecideOnlyPositive sweeps u over [0, 1) for every row —
// a uniform grid plus both sides of every cumulative bound — and requires
// every pick to be a datacenter the row gives positive weight.
func TestSnapshotDecideOnlyPositive(t *testing.T) {
	for _, tc := range testAllocations(t) {
		name, alloc := tc.name, tc.alloc
		s := NewSnapshot(1, alloc, SolveInfo{})
		w := make([]float64, s.N)
		for fe := 0; fe < s.M; fe++ {
			s.Weights(fe, w)
			us := []float64{0, math.Nextafter(1, 0)}
			for k := 0; k < 1000; k++ {
				us = append(us, float64(k)/1000)
			}
			for k := s.start[fe]; k < s.start[fe+1]; k++ {
				c := s.cum[k]
				us = append(us, math.Nextafter(c, 0), c, math.Nextafter(c, 1))
			}
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue
				}
				if j := s.decide(fe, u); !(w[j] > 0) {
					t.Fatalf("%s: fe %d, u=%.17g: picked dc %d of weight %g", name, fe, u, j, w[j])
				}
			}
		}
	}
}

// TestSnapshotZeroDemandUniform: a front-end with no routed load falls
// back to all N datacenters, each picked on its 1/N share of u.
func TestSnapshotZeroDemandUniform(t *testing.T) {
	s := NewSnapshot(1, handAllocation(), SolveInfo{})
	const fe = 1
	if got := s.start[fe+1] - s.start[fe]; int(got) != s.N {
		t.Fatalf("zero-demand row holds %d entries, want %d", got, s.N)
	}
	for j := 0; j < s.N; j++ {
		u := (float64(j) + 0.5) / float64(s.N)
		if got := s.decide(fe, u); got != j {
			t.Fatalf("u=%g picked dc %d, want %d", u, got, j)
		}
	}
}

// TestSnapshotCloneShares: a clone carries a new header over the same
// rows.
func TestSnapshotCloneShares(t *testing.T) {
	s := NewSnapshot(1, handAllocation(), SolveInfo{})
	c := s.clone(9, SolveInfo{Cached: true})
	if c.Slot != 9 || !c.Info.Cached || c.M != s.M || c.N != s.N {
		t.Fatalf("clone header %+v", c)
	}
	if &c.start[0] != &s.start[0] || &c.dc[0] != &s.dc[0] || &c.cum[0] != &s.cum[0] {
		t.Fatal("clone copied the routing rows")
	}
}

// TestSnapshotCompactSize: a fleet snapshot's rows cost 12 bytes per
// positive routing entry (int32 datacenter + float64 bound) plus the
// int32 row starts, not the 8·M·N bytes of a dense table.
func TestSnapshotCompactSize(t *testing.T) {
	alloc := fleetAllocation(t)
	s := NewSnapshot(1, alloc, SolveInfo{})
	k := nnz(alloc)
	bytes := 4*cap(s.start) + 4*cap(s.dc) + 8*cap(s.cum)
	if limit := 12*k + 4*(s.M+1); bytes > limit {
		t.Fatalf("snapshot rows take %d bytes, want ≤ 12·%d + 4·%d = %d", bytes, k, s.M+1, limit)
	}
	if dense := 8 * s.M * s.N; 2*bytes > dense {
		t.Fatalf("snapshot rows take %d bytes, over half the %d-byte dense table", bytes, dense)
	}
	t.Logf("%d positive entries of %d: %d bytes (dense %d)", k, s.M*s.N, bytes, 8*s.M*s.N)
}
