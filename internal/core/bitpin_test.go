package core_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/utility"
)

// hashFloats folds the IEEE-754 bits of xs into h.
func hashFloats(h hash.Hash64, xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// hashState folds every block of s into h.
func hashState(h hash.Hash64, s *core.State) {
	for i := range s.Lambda {
		hashFloats(h, s.Lambda[i]...)
		hashFloats(h, s.A[i]...)
		hashFloats(h, s.Varphi[i]...)
	}
	hashFloats(h, s.Mu...)
	hashFloats(h, s.Nu...)
	hashFloats(h, s.Phi...)
}

// TestBitPinDenseIterates pins the float64 bits of the first 40 dense
// ADM-G iterates (SparsityCutoff = 0) on the paper scenario, under each
// utility family, and on a 6×40 regional fleet. The linear and
// exponential hashes were recorded from the solver before the dense
// kernels were folded into the masked ones; the two quadratic-utility
// hashes were re-recorded when the exact piecewise-linear λ-step replaced
// the bisection. Any change to the order or form of a float operation on
// the dense path shows up here as a different hash.
func TestBitPinDenseIterates(t *testing.T) {
	sc, err := experiments.NewScenario(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, fleet := sparseTopology(t, 6, 40, 3, 11)
	// The same slot under the Linear utility and under a utility without
	// the exact λ-QP (projected-gradient λ-step).
	linear, exp := *sc.InstanceAt(12), *sc.InstanceAt(12)
	linear.Utility = utility.Linear{}
	exp.Utility = utility.Exponential{K: 5}
	cases := []struct {
		name string
		inst *core.Instance
		want uint64
	}{
		{"paper-slot12", sc.InstanceAt(12), 0x0c605bc5250bdcf9},
		{"fleet-6x40", fleet, 0xadd366f57bb7c489},
		{"paper-slot12-linear", &linear, 0x5c6dd2ae90d3c346},
		{"paper-slot12-exponential", &exp, 0x4d7ae27e29e887fe},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := core.NewEngine(tc.inst, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s := core.NewState(tc.inst.Cloud.M(), tc.inst.Cloud.N())
			h := fnv.New64a()
			for it := 0; it < 40; it++ {
				if err := eng.Iterate(s); err != nil {
					t.Fatal(err)
				}
				hashState(h, s)
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("dense iterate hash %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
