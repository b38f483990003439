package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/distsim"
	"repro/internal/telemetry/tracing"
)

// TestRunFlagValidation: every invalid flag combination must fail fast —
// before a listener is bound or a solve starts.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"route shards not power of two", []string{"-route-shards", "3"}, "power of two"},
		{"route shards negative", []string{"-route-shards", "-2"}, "power of two"},
		{"topology without serve", []string{"-topology", "4,10,1"}, "-topology requires -serve"},
		{"slot cycle without serve", []string{"-slot-cycle", "4"}, "-slot-cycle requires -serve"},
		{"serve without topology", []string{"-serve"}, "-serve requires -topology"},
		{"serve bad topology", []string{"-serve", "-topology", "4,10"}, "want N,M,R"},
		{"serve zero-agent topology", []string{"-serve", "-topology", "0,10,1"}, "N ≥ 1"},
		{"serve regions above min", []string{"-serve", "-topology", "4,10,5"}, "1 ≤ R ≤ min(N, M)"},
		{"negative slot cycle", []string{"-serve", "-topology", "4,10,1", "-slot-cycle", "-1"}, "-slot-cycle"},
		{"negative cache size", []string{"-serve", "-topology", "4,10,1", "-cache-size", "-1"}, "-cache-size"},
		{"negative maxiters", []string{"-serve", "-topology", "4,10,1", "-maxiters", "-5"}, "-maxiters"},
		{"negative slot interval", []string{"-serve", "-topology", "4,10,1", "-slot-interval", "-1s"}, "-slot-interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...))
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestNewServePipelineValid: a well-formed -serve flag set yields an idle
// pipeline whose first slot solves on demand.
func TestNewServePipelineValid(t *testing.T) {
	pipe, err := newServePipeline("3,6,3", 7, 2, 8, 500, 1, 50*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunSlot(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pipe.Stop() }() //ufc:discard test cleanup
	if _, _, _, ok := pipe.Decide(0, 0); !ok {
		t.Fatal("no decision after the first slot solved")
	}
	if r := pipe.Report(); r.Solves != 1 {
		t.Fatalf("%d solves after one RunSlot", r.Solves)
	}
}

// TestTraceSpansThreeComponents wires the full serving plane in-process —
// load-generator client, TCP hub and control-plane pipeline sharing one
// trace registry, exactly as a ufchub -serve -metrics-addr process does —
// and asserts that a single traced lookup yields one trace id whose spans
// are retrievable over /debug/ufc/trace and cover all three components.
func TestTraceSpansThreeComponents(t *testing.T) {
	traceReg := tracing.NewRegistry()
	ids := tracing.NewIDSource(7)
	lgTracer := traceReg.Recorder(tracing.Config{Component: "loadgen", IDs: ids, SampleEvery: 1})
	hubTracer := traceReg.Recorder(tracing.Config{Component: "hub", IDs: ids, SampleEvery: 1})
	cpTracer := traceReg.Recorder(tracing.Config{Component: "controlplane", IDs: ids, SampleEvery: 1})

	pipe, err := newServePipeline("3,6,3", 7, 2, 8, 500, 1, 50*time.Millisecond, nil, cpTracer)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pipe.Stop() }() //ufc:discard test cleanup
	if err := pipe.RunSlot(); err != nil {
		t.Fatal(err)
	}

	hub, err := distsim.Listen(context.Background(), distsim.ListenConfig{Addr: "127.0.0.1:0", Decider: pipe, Tracer: hubTracer})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }() //ufc:discard test cleanup

	got := make(chan distsim.Decision, 1)
	ep, err := distsim.Dial(context.Background(), distsim.DialConfig{
		Addr: hub.Addr(), LookupName: "lg-0", OnDecision: func(d distsim.Decision) { got <- d },
	})
	if err != nil {
		t.Fatal(err)
	}
	client := ep.(*distsim.LookupClient)
	defer func() { _ = client.Close() }() //ufc:discard test cleanup

	sp := lgTracer.Root("load.request")
	tc := sp.Context()
	sp.End()
	if !tc.Valid() {
		t.Fatal("root span has no context with SampleEvery=1")
	}
	sentNanos := time.Now().UnixNano()
	if err := client.LookupTraced(0, 1, 42, tc); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if !d.OK {
			t.Fatal("lookup answered unavailable with a published snapshot")
		}
		lgTracer.RecordSpan(tc, "load.decide", sentNanos, time.Now().UnixNano(),
			tracing.I64("req", 1), tracing.I64("dc", int64(d.DC)))
	case <-time.After(5 * time.Second):
		t.Fatal("no decision within 5s")
	}

	// The hub-side spans commit on the hub's reader goroutine; the decision
	// reaching the client happens-after them, but poll briefly anyway.
	srv := httptest.NewServer(traceReg.Handler())
	defer srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/?trace=" + tc.Trace.String())
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Spans []tracing.SpanRecord `json:"spans"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close() //ufc:discard test loop
		comps := map[string]bool{}
		for _, s := range dump.Spans {
			if s.Trace != tc.Trace.String() {
				t.Fatalf("span %q has trace %s, want %s", s.Name, s.Trace, tc.Trace)
			}
			comps[s.Component] = true
		}
		if comps["loadgen"] && comps["hub"] && comps["controlplane"] {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s spans components %v, want loadgen+hub+controlplane (spans: %+v)",
				tc.Trace, comps, dump.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
