//go:build !race

// The allocation gates below count heap allocations on the TCP send path.
// Under the race detector sync.Pool deliberately drops a share of Puts, so
// pooled frames are re-allocated and the counts stop meaning anything; as
// in the Go standard library, the gates build only without -race.

package distsim_test

import (
	"io"
	"net"
	"testing"

	"repro/internal/distsim"
	"repro/internal/telemetry"
)

// TestTCPSendSteadyStateAllocs pins the allocation-free send path: after
// warmup, TCPNode.Send must not allocate. The peer is a raw discarding
// socket so the in-process receive path stays out of the measurement.
func TestTCPSendSteadyStateAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	node, err := dialNode(ln.Addr().String(), []string{"fe-0"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	msg := distsim.Message{Kind: distsim.KindRouting, Iter: 7, From: "fe-0", Payload: []float64{1, 2.5, 3.25}}
	for k := 0; k < 512; k++ { // warm the buffer pool and writer
		if err := node.Send("dc-0", msg); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := node.Send("dc-0", msg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Errorf("steady-state Send allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRegisteredSendZeroAllocs re-runs the steady-state Send allocation
// gate with the node's counters attached to a live registry and a
// concurrent-scrape-plausible setup: registration must not add a single
// allocation to the send path.
func TestRegisteredSendZeroAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, conn) }()
		}
	}()
	node, err := dialNode(ln.Addr().String(), []string{"fe-0"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	reg := telemetry.NewRegistry()
	node.RegisterMetrics(reg)

	msg := distsim.Message{Kind: distsim.KindRouting, Iter: 3, From: "fe-0", Payload: []float64{1, 2, 3}}
	for k := 0; k < 512; k++ {
		if err := node.Send("dc-0", msg); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := node.Send("dc-0", msg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.1 {
		t.Errorf("registered Send allocates %.2f allocs/op, want 0", avg)
	}
	if node.Stats().MessagesSent == 0 {
		t.Error("counters not live")
	}
}
