package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/distsim"
)

// solvedSlot solves slot 1 of the first paper week and returns the
// instance, a checker engine reset to it and the solved allocation.
func solvedSlot(t *testing.T) (*core.Instance, *core.Engine, *core.Allocation) {
	t.Helper()
	instAt, opts, err := paperFamily(weekSeed(1, 0)).build()
	if err != nil {
		t.Fatal(err)
	}
	inst := instAt(1)
	eng, err := core.NewEngine(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	alloc, _, _, err := eng.SolveState(core.NewState(inst.Cloud.M(), inst.Cloud.N()))
	if err != nil {
		t.Fatal(err)
	}
	return inst, eng, alloc
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("check passed, want a failure mentioning %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestCheckSlotFiresOnCorruptedResults(t *testing.T) {
	inst, chk, alloc := solvedSlot(t)
	good := controlplane.NewSnapshot(1, alloc, controlplane.SolveInfo{Converged: true})
	ufc, err := checkSlot(inst, chk, good)
	if err != nil {
		t.Fatalf("solved slot failed its check: %v", err)
	}

	unconverged := controlplane.NewSnapshot(1, alloc, controlplane.SolveInfo{Converged: false, Iterations: 7})
	_, err = checkSlot(inst, chk, unconverged)
	wantErr(t, err, "not converged")

	// Every front-end routed to datacenter 0: far over its capacity.
	piled := alloc.Clone()
	for i := range piled.Lambda {
		for j := range piled.Lambda[i] {
			piled.Lambda[i][j] = 0
		}
		piled.Lambda[i][0] = inst.Arrivals[i]
	}
	_, err = checkSlot(inst, chk, controlplane.NewSnapshot(1, piled, controlplane.SolveInfo{Converged: true}))
	wantErr(t, err, "infeasible")

	_, err = checkSlot(inst, chk, nil)
	wantErr(t, err, "no snapshot")

	// The row-sum check (Snapshot.MaxRowError) cannot be corrupted from
	// outside the controlplane package: NewSnapshot normalizes every row.
	if e := good.MaxRowError(); e > maxRowError {
		t.Fatalf("row error %g on a published snapshot", e)
	}

	if err := checkGap(1, ufc, ufc); err != nil {
		t.Fatalf("zero gap failed: %v", err)
	}
	wantErr(t, checkGap(1, ufc*(1+2*maxObjectiveGap), ufc), "objective gap")
}

func TestCheckLookupFiresOnCorruptedResults(t *testing.T) {
	_, _, alloc := solvedSlot(t)
	// Front-end 0 routes only to datacenter 1 in this snapshot.
	only := alloc.Clone()
	for j := range only.Lambda[0] {
		only.Lambda[0][j] = 0
	}
	only.Lambda[0][1] = 1
	snaps := map[int64]*controlplane.Snapshot{3: controlplane.NewSnapshot(3, only, controlplane.SolveInfo{Converged: true})}
	w := make([]float64, len(alloc.MuMW))
	ok := lookupRecord{fe: 0, answered: true, d: distsim.Decision{DC: 1, Slot: 3, OK: true}}
	if err := checkLookup(1, ok, snaps, w); err != nil {
		t.Fatalf("valid lookup failed: %v", err)
	}

	bad := ok
	bad.answered = false
	wantErr(t, checkLookup(1, bad, snaps, w), "unanswered")
	bad = ok
	bad.d.OK = false
	wantErr(t, checkLookup(1, bad, snaps, w), "not OK")
	bad = ok
	bad.d.Slot = 4
	wantErr(t, checkLookup(1, bad, snaps, w), "never published")
	bad = ok
	bad.d.DC = 0
	wantErr(t, checkLookup(1, bad, snaps, w), "weight 0")
	bad = ok
	bad.d.DC = 99
	wantErr(t, checkLookup(1, bad, snaps, w), "outside")
}

func TestCheckDistFiresOnCorruptedResults(t *testing.T) {
	seq := core.Breakdown{UFC: -982.77}
	res := &distsim.Result{Breakdown: seq, Stats: &core.Stats{Iterations: 80}}
	if err := checkDist(1, res, seq, 80); err != nil {
		t.Fatalf("identical result failed: %v", err)
	}
	offByOneULP := &distsim.Result{Breakdown: core.Breakdown{UFC: math.Nextafter(seq.UFC, 0)}, Stats: &core.Stats{Iterations: 80}}
	wantErr(t, checkDist(1, offByOneULP, seq, 80), "UFC")
	wantErr(t, checkDist(1, res, seq, 81), "iterations")
	wantErr(t, checkDist(1, nil, seq, 80), "no result")
}
