package distsim_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/distsim"
	"repro/internal/telemetry"
)

// TestTransportAndShardMetrics runs a full distributed solve over TCP
// with hub, node and solver probe attached to one registry, then checks
// the scraped exposition against the snapshot views: the registry must
// show the same counters TransportStats reports, per-shard routing
// totals must add up to the hub's forwarded records, and the coordinator
// must have fed the solver probe.
func TestTransportAndShardMetrics(t *testing.T) {
	inst := testInstance(t, 21)
	reg := telemetry.NewRegistry()
	probe := telemetry.NewSolverProbe()
	probe.Register(reg)

	hub, err := listenHub(distsim.ListenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	hub.RegisterMetrics(reg, telemetry.L("component", "hub"))

	m, n := inst.Cloud.M(), inst.Cloud.N()
	node, err := dialNode(hub.Addr(), distsim.AllAgentIDs(m, n), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	node.RegisterMetrics(reg, telemetry.L("component", "node"))

	res, err := distsim.Run(context.Background(), inst, distsim.RunOptions{
		Solver:  core.Options{Probe: probe},
		Timeout: time.Minute,
	}, node)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := probe.Iterations(), uint64(res.Stats.Iterations); got != want {
		t.Errorf("probe iterations = %d, want %d", got, want)
	}
	if probe.Solves() != 1 {
		t.Errorf("probe solves = %d, want 1", probe.Solves())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`ufc_transport_msgs_sent_total{component="hub"}`,
		`ufc_transport_msgs_sent_total{component="node"}`,
		`ufc_transport_bytes_sent_total{component="node"}`,
		`ufc_hub_shard_msgs_total{component="hub",shard="0"}`,
		`ufc_hub_shard_msgs_total{component="hub",shard="15"}`,
		`ufc_solver_iterations_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Per-shard msgs must sum to the hub's forwarded records: everything
	// the hub received except the node's one hello record.
	hs := hub.Stats()
	var shardMsgs, shardBytes uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ufc_hub_shard_msgs_total{") {
			shardMsgs += parseUintSample(t, line)
		}
		if strings.HasPrefix(line, "ufc_hub_shard_bytes_total{") {
			shardBytes += parseUintSample(t, line)
		}
	}
	if want := hs.MessagesReceived - 1; shardMsgs != want {
		t.Errorf("shard msgs sum = %d, want %d (hub received %d incl. hello)", shardMsgs, want, hs.MessagesReceived)
	}
	if shardBytes == 0 {
		t.Error("shard bytes sum = 0")
	}

	// The registry view and the snapshot view are the same counters.
	ns := node.Stats()
	if !strings.Contains(out, sampleLine("ufc_transport_msgs_sent_total", `component="node"`, ns.MessagesSent)) {
		t.Errorf("registry disagrees with node snapshot %d:\n%s", ns.MessagesSent, out)
	}
}

func parseUintSample(t *testing.T, line string) uint64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		t.Fatalf("malformed sample %q", line)
	}
	var v uint64
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			t.Fatalf("non-integer sample %q", line)
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

func sampleLine(name, labels string, v uint64) string {
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	sb.WriteString(labels)
	sb.WriteString("} ")
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	sb.Write(buf[i:])
	return sb.String()
}
