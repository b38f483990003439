package ufc_test

import (
	"testing"
	"time"

	"repro/ufc"
)

// TestControlPlaneFacade drives the public serving surface end to end:
// a two-datacenter instance with slowly drifting arrivals, three slots,
// warm starts and the memo cache on.
func TestControlPlaneFacade(t *testing.T) {
	base := buildTwoDCInstance(t)
	cp, err := ufc.NewControlPlane(ufc.ServeConfig{
		Instance: func(slot int64) *ufc.Instance {
			inst := *base
			arr := append([]float64(nil), base.Arrivals...)
			for i := range arr {
				arr[i] *= 1 + 0.02*float64(slot%4)
			}
			inst.Arrivals = arr
			return &inst
		},
		Solver:       ufc.Options{MaxIterations: 2000},
		WarmStart:    true,
		CacheSize:    4,
		SlotInterval: time.Hour, // loop never fires a second slot during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cp.Stop() }() //ufc:discard test cleanup

	for slot := 0; slot < 2; slot++ {
		if err := cp.RunSlot(); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	dc, _, age, ok := cp.Decide(0, 1<<63)
	if !ok {
		t.Fatal("no decision from a running control plane")
	}
	if dc > 1 {
		t.Fatalf("decision %d outside the two-datacenter fleet", dc)
	}
	if age < 0 {
		t.Fatalf("negative snapshot age %d", age)
	}
	r := cp.Report()
	if r.Solves != 3 || r.WarmSolves != 2 {
		t.Fatalf("report %+v: want 3 solves of which 2 warm", r)
	}
	if snap := cp.Router().Current(); snap.M != base.Cloud.M() || snap.N != base.Cloud.N() {
		t.Fatalf("snapshot shape %dx%d, want %dx%d", snap.M, snap.N, base.Cloud.M(), base.Cloud.N())
	}
}

// TestControlPlaneFacadeRunSlotBesideLoop drives RunSlot from the caller
// while Run's loop re-solves back to back on the same engine. The two
// must take turns: every slot number is solved exactly once, in order,
// with nothing lost to a concurrent solve.
func TestControlPlaneFacadeRunSlotBesideLoop(t *testing.T) {
	base := buildTwoDCInstance(t)
	cp, err := ufc.NewControlPlane(ufc.ServeConfig{
		Instance: func(slot int64) *ufc.Instance {
			inst := *base
			arr := append([]float64(nil), base.Arrivals...)
			for i := range arr {
				arr[i] *= 1 + 0.02*float64(slot%4)
			}
			inst.Arrivals = arr
			return &inst
		},
		Solver:    ufc.Options{MaxIterations: 2000},
		WarmStart: true,
		// SlotInterval zero: the loop free-runs beside the caller.
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Run(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if err := cp.RunSlot(); err != nil {
			t.Fatalf("direct slot %d: %v", k, err)
		}
	}
	if err := cp.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	r := cp.Report()
	if r.Solves < 5 || r.Solves != uint64(r.Slot+1) {
		t.Fatalf("report %+v: want one solve per published slot, at least 5", r)
	}
}
