package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at minimal size, untraced and traced, and
// checks that each prints exactly the metric names and units
// BENCHMARK.json declares, with every check passing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	// serve_lookup pins the test process to one CPU; the workloads after
	// it only run slower.
	for _, w := range s.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	for _, trace := range []string{"0", "1"} {
		want := map[string]string{}
		if trace == "0" {
			for _, m := range s.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range s.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		for _, wl := range workloads {
			t.Run(wl.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code, err := run([]string{"--workload", wl.name, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"}, &out)
				if code != 0 || err != nil {
					t.Fatalf("exit %d: %v\n%s", code, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestDeterminism runs the same seed twice and another seed once: the
// counts and the accuracy repeat exactly for a seed and change with it.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("solves fleet slots")
	}
	keys := []string{"core.iterations", "core.objective_gap_max", "distsim.msgs_per_iter", "distsim.bytes_per_iter"}
	measure := func(seed int64) metricSet {
		out, err := runDistSolve(runConfig{seed: seed, seconds: 0.01, rec: newRecorder(), smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.checks.failed != 0 {
			t.Fatalf("seed %d: %v", seed, out.checks.failures)
		}
		return out.layers
	}
	a, b, c := measure(1), measure(1), measure(2)
	for _, k := range keys {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v for the same seed", k, a[k].Value, b[k].Value)
		}
		if a[k] == c[k] {
			t.Errorf("%s: %v for seeds 1 and 2", k, a[k].Value)
		}
	}

	paper := func(seed int64) metricSet {
		out, err := runPaperWeek(runConfig{seed: seed, seconds: 0.01, rec: newRecorder(), smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		return out.layers
	}
	p1, p2, p3 := paper(1), paper(1), paper(2)
	for _, k := range []string{"core.iterations", "core.objective_gap_max"} {
		if p1[k] != p2[k] || p1[k] == p3[k] {
			t.Errorf("paper_week %s: %v, %v (seed 1), %v (seed 2)", k, p1[k].Value, p2[k].Value, p3[k].Value)
		}
	}
}
