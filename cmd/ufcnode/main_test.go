package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/distsim"
)

func TestWriteInstance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := run([]string{"-write-instance", path, "-hour", "3", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inst, err := codec.DecodeInstance(f)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Cloud.N() != 4 || inst.Cloud.M() != 10 {
		t.Fatalf("unexpected topology %dx%d", inst.Cloud.N(), inst.Cloud.M())
	}
}

func TestWriteInstanceBadHour(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := run([]string{"-write-instance", path, "-hour", "9999"}); err == nil {
		t.Fatal("out-of-range hour accepted")
	}
}

func TestSingleNodeSolveOverHub(t *testing.T) {
	hub, err := distsim.Listen(context.Background(), distsim.ListenConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	path := filepath.Join(t.TempDir(), "inst.json")
	if err := run([]string{"-write-instance", path, "-hour", "2", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}
	// Single-node mode: hosts every agent, pushes all traffic through the
	// hub, prints the result to stdout (suppressed here).
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = run([]string{"-hub", hub.Addr(), "-instance", path, "-agents", "all"})
	os.Stdout = old
	_ = devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
}

func TestMissingInstanceFlag(t *testing.T) {
	if err := run([]string{"-agents", "all"}); err == nil {
		t.Fatal("missing -instance accepted")
	}
}

// TestMetricsEndpointAfterSolve is the end-to-end acceptance check for
// the observability subsystem: run a full single-node solve over a hub
// with -metrics-addr, then scrape /metrics over real HTTP and demand the
// solver and transport series that a dashboard would alert on.
func TestMetricsEndpointAfterSolve(t *testing.T) {
	hub, err := distsim.Listen(context.Background(), distsim.ListenConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()

	path := filepath.Join(t.TempDir(), "inst.json")
	if err := run([]string{"-write-instance", path, "-hour", "5", "-scale", "0.05"}); err != nil {
		t.Fatal(err)
	}

	var metricsURL string
	metricsStarted = func(addr string) { metricsURL = "http://" + addr + "/metrics" }
	defer func() { metricsStarted = nil }()

	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = run([]string{"-hub", hub.Addr(), "-instance", path, "-agents", "all", "-metrics-addr", "127.0.0.1:0"})
	os.Stdout = old
	_ = devnull.Close()
	if err != nil {
		t.Fatal(err)
	}
	if metricsURL == "" {
		t.Fatal("metrics server never reported its address")
	}

	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", metricsURL, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"ufc_solver_solves_total 1",
		"ufc_solver_converged_total 1",
		"ufc_solver_iterations_total",
		"ufc_solver_iteration_residual_bucket",
		`ufc_transport_msgs_sent_total{component="node"}`,
		`ufc_transport_bytes_sent_total{component="node"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
