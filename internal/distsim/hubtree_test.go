package distsim_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/experiments"
)

func TestHubRejectsBadRouteShards(t *testing.T) {
	for _, shards := range []int{3, 7, 12, -1} {
		if hub, err := listenHub(distsim.ListenConfig{RouteShards: shards}); err == nil {
			_ = hub.Close()
			t.Errorf("RouteShards=%d accepted, want power-of-two error", shards)
		}
	}
	hub, err := listenHub(distsim.ListenConfig{RouteShards: 8})
	if err != nil {
		t.Fatalf("RouteShards=8 rejected: %v", err)
	}
	_ = hub.Close()
}

// TestDistributedSparseMatchesInProcess pins the sparse protocol agents to
// the in-process masked solver: a distributed run over a sparse engine
// must be bit-identical (per λ entry and in UFC) to core.Solve with the
// same SparsityCutoff — the compact per-agent loops reproduce the masked
// engine's arithmetic exactly.
func TestDistributedSparseMatchesInProcess(t *testing.T) {
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 4, M: 8, Regions: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst := st.Instance(1)
	opts := core.Options{SparsityCutoff: st.CutoffSec}
	seqAlloc, seqBD, seqStats, err := core.Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, n := inst.Cloud.M(), inst.Cloud.N()
	tr := distsim.NewChanTransport(distsim.AllAgentIDs(m, n), distsim.ChanOptions{Seed: 9})
	defer func() { _ = tr.Close() }()
	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: opts}, tr)
	if err != nil {
		t.Fatalf("sparse distributed run: %v", err)
	}
	if res.Stats.Iterations != seqStats.Iterations {
		t.Errorf("iterations: distributed %d vs in-process %d", res.Stats.Iterations, seqStats.Iterations)
	}
	for i := range seqAlloc.Lambda {
		for j := range seqAlloc.Lambda[i] {
			if seqAlloc.Lambda[i][j] != res.Allocation.Lambda[i][j] {
				t.Fatalf("lambda[%d][%d]: distributed %v vs in-process %v (must be bit-identical)",
					i, j, res.Allocation.Lambda[i][j], seqAlloc.Lambda[i][j])
			}
		}
	}
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC: distributed %v vs in-process %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

// runTree launches a hub-tree deployment: the coordinator's node on the
// root hub and one node per region on that region's sub-hub, each running
// its region's front-end and datacenter agents via RunAgents. It returns
// the coordinator's result.
func runTree(t *testing.T, st *experiments.SyntheticTopology, inst *core.Instance, opts core.Options, root *distsim.TCPHub, subs []*distsim.TCPHub) *distsim.Result {
	t.Helper()
	m, n := inst.Cloud.M(), inst.Cloud.N()
	regionIDs := make([][]string, len(subs))
	for i := 0; i < m; i++ {
		r := st.FERegion[i]
		regionIDs[r] = append(regionIDs[r], fmt.Sprintf("fe-%d", i))
	}
	for j := 0; j < n; j++ {
		r := st.DCRegion[j]
		regionIDs[r] = append(regionIDs[r], fmt.Sprintf("dc-%d", j))
	}

	runOpts := distsim.RunOptions{Solver: opts, Timeout: time.Minute}
	var wg sync.WaitGroup
	errCh := make(chan error, len(subs))
	for r, hub := range subs {
		node, err := dialNode(hub.Addr(), regionIDs[r], 1024)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = node.Close() }()
		wg.Add(1)
		go func(r int, node *distsim.TCPNode) {
			defer wg.Done()
			if _, err := distsim.RunAgents(context.Background(), inst, runOpts, node, regionIDs[r]); err != nil {
				errCh <- fmt.Errorf("region %d agents: %w", r, err)
			}
		}(r, node)
	}
	coNode, err := dialNode(root.Addr(), []string{"coord"}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = coNode.Close() }()
	res, err := distsim.RunAgents(context.Background(), inst, runOpts, coNode, []string{"coord"})
	if err != nil {
		t.Fatalf("tree coordinator: %v", err)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return res
}

// newTree builds a root hub plus R regional sub-hubs parented to it.
func newTree(t *testing.T, regions int) (*distsim.TCPHub, []*distsim.TCPHub) {
	t.Helper()
	root, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = root.Close() })
	subs := make([]*distsim.TCPHub, regions)
	for r := range subs {
		sub, err := listenHub(distsim.ListenConfig{Parent: root.Addr(), Region: r})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sub.Close() })
		subs[r] = sub
	}
	return root, subs
}

// TestHubTreeDense solves a dense instance across a 3-level topology
// (agents → regional sub-hubs → root) and demands the same bit-exact
// result as a flat single-hub run: the tree is pure routing, invisible to
// the protocol.
func TestHubTreeDense(t *testing.T) {
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 4, M: 8, Regions: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst := st.Instance(2)
	_, seqBD, _, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	root, subs := newTree(t, 2)
	res := runTree(t, st, inst, core.Options{}, root, subs)
	if res.Breakdown.UFC != seqBD.UFC {
		t.Errorf("UFC over hub tree: %v vs sequential %v", res.Breakdown.UFC, seqBD.UFC)
	}
}

// TestHubTreeReducesRootBytes is the scaling acceptance check: on the
// 20×200 topology with 4 regions and the sparsity cutoff set to the
// region structure, a hub tree (root + 4 regional sub-hubs) must carry at
// least 4× fewer bytes through the root hub than a flat hub carries in
// total, while producing the identical UFC. Intra-region λ̃/φ/ã exchanges
// terminate at the sub-hubs; only coordinator traffic — batched on the
// hub↔hub links — transits the root.
func TestHubTreeReducesRootBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hub 20×200 run in -short mode")
	}
	const regions = 4
	st, err := experiments.NewSyntheticTopology(experiments.Topology{N: 20, M: 200, Regions: regions}, 7)
	if err != nil {
		t.Fatal(err)
	}
	inst := st.Instance(1)
	// The byte comparison needs identical protocol rounds, not
	// convergence: both deployments run the same fixed iteration count.
	opts := core.Options{SparsityCutoff: st.CutoffSec, MaxIterations: 40}
	m, n := inst.Cloud.M(), inst.Cloud.N()

	// Flat deployment: every agent on one hub.
	flatHub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = flatHub.Close() }()
	flatNode, err := dialNode(flatHub.Addr(), distsim.AllAgentIDs(m, n), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = flatNode.Close() }()
	flatRes, err := distsim.Run(context.Background(), inst, distsim.RunOptions{Solver: opts, Timeout: time.Minute}, flatNode)
	if err != nil {
		t.Fatalf("flat run: %v", err)
	}
	flatStats := flatHub.Stats()

	// Tree deployment: regional agents on sub-hubs, coordinator on the root.
	root, subs := newTree(t, regions)
	treeRes := runTree(t, st, inst, opts, root, subs)
	rootStats := root.Stats()

	if flatRes.Breakdown.UFC != treeRes.Breakdown.UFC {
		t.Errorf("UFC: flat %v vs tree %v (must be identical)", flatRes.Breakdown.UFC, treeRes.Breakdown.UFC)
	}
	flatBytes := flatStats.BytesSent + flatStats.BytesReceived
	rootBytes := rootStats.BytesSent + rootStats.BytesReceived
	if rootBytes == 0 {
		t.Fatal("root hub saw no traffic; coordinator not routed through the root?")
	}
	if ratio := float64(flatBytes) / float64(rootBytes); ratio < 4 {
		t.Errorf("root-hub bytes reduced only %.2fx (flat %d vs tree root %d), want >= 4x", ratio, flatBytes, rootBytes)
	} else {
		t.Logf("root-hub bytes: flat %d, tree root %d (%.2fx reduction) over %d iterations",
			flatBytes, rootBytes, ratio, flatRes.Stats.Iterations)
	}
}
