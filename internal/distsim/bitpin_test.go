package distsim_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
// the sequential solve, so they share one hash. It was recorded before the
// dense protocol agents were replaced by the mask-indexed ones, so the
// agents' arithmetic on a full mask is held to the old dense agents' bit
// for bit.
func TestBitPinDenseRuns(t *testing.T) {
	inst := testInstance(t, 1)
	const want = 0xcbd671986396025b
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
