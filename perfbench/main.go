// Command perfbench is the repository's benchmark: one program that runs
// the UFC stack's workloads end to end, checks every output it measures,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload fleet_day --seed 1 --seconds 15 --trace 0
//
// See README.md beside this file for the workloads, the metrics and how
// the traced run decomposes each primary metric into layer self times.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir collects the full result records and the traced runs' spans,
// relative to the working directory (the checkout root).
const outDir = ".bench_out"

// maxProcs caps GOMAXPROCS so hosts with more cores measure the same
// configuration; it never exceeds the host's CPU count.
const maxProcs = 2

// runConfig is what one workload pass is given.
type runConfig struct {
	seed    int64
	seconds float64      // measuring budget of this pass
	rec     *recorder    // nil: tracing off
	heap    *heapTracker // nil: heap not tracked
	smoke   bool         // minimal sizes: every code path once, quickly
}

// workload runs one pass and reports what it measured and checked.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
	// family builds the workload's instance family for the layer sweep.
	family func(seed int64) (*family, error)
	// oneCPU runs the process on one CPU with GOMAXPROCS 1. On a small
	// virtual machine, where the OS places a process's threads sets how
	// often each loopback round trip crosses CPUs, and that placement is
	// kept for the life of the process: sub-millisecond latencies then
	// differ by half between otherwise identical runs. On one CPU they do
	// not.
	oneCPU bool
}

var workloads = []workload{
	{name: "paper_week", run: runPaperWeek, family: func(seed int64) (*family, error) { return paperFamily(weekSeed(seed, 0)), nil }},
	{name: "fleet_day", run: runFleetDay, family: fleetFamily},
	{name: "serve_lookup", run: runServeLookup, family: fleetFamily, oneCPU: true},
	{name: "dist_solve", run: runDistSolve, family: fleetFamily},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses args, runs one workload and prints its result. It returns
// the exit code: 0 when every check passed, 1 when a check failed (the
// result line is still printed) and 2 when the run could not complete.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "measuring time of the run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	smoke := fs.Bool("smoke", false, "minimal sizes: run every path once and check the metric names")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := lookupWorkload(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return 2, fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return 2, fmt.Errorf("-seconds %g: must be positive", *seconds)
	}
	if wl.oneCPU {
		runtime.GOMAXPROCS(1)
		if err := pinToCPU(0); err != nil {
			return 2, err
		}
	} else {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	}

	heap := &heapTracker{}
	cfg := runConfig{seed: *seed, seconds: *seconds, heap: heap, smoke: *smoke}
	var out *outcome
	var err error
	if *trace == 1 {
		out, err = tracedRun(wl, cfg)
	} else {
		out, err = wl.run(cfg)
	}
	if err != nil {
		return 2, fmt.Errorf("%s: %w", wl.name, err)
	}
	if *trace == 0 {
		out.endToEnd.set("peak_heap_mb", heap.peak/1e6, "MB")
		out.named.set("peak_heap_mb", heap.peak/1e6, "MB")
	}

	res := result{
		Correct:   out.checks.failed == 0,
		Attempted: out.checks.attempted,
		Failed:    out.checks.failed,
		Metrics:   out.endToEnd,
	}
	if *trace == 1 {
		res.Metrics = out.layers
	}
	if res.Attempted < 1 {
		return 2, errors.New("no operation was attempted")
	}
	record := fullRecord{
		Workload:   wl.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *trace,
		Host:       hostInfo(wl.oneCPU),
		Inputs:     out.provenance,
		Named:      out.named,
		Metrics:    res.Metrics,
		Attempted:  res.Attempted,
		Failed:     res.Failed,
		Failures:   out.checks.failures,
		Decomposed: out.decomposition,
	}
	path, werr := writeRecord(record)
	if werr != nil {
		return 2, werr
	}

	w := bufio.NewWriter(stdout)
	// The record above marshalled the same values, so this cannot fail.
	prov, _ := json.Marshal(map[string]any{"workload": wl.name, "seed": *seed, "host": record.Host, "inputs": record.Inputs, "record": path})
	fmt.Fprintf(w, "provenance %s\n", prov)
	printTable(w, wl.name, out.named)
	for _, f := range out.checks.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return 2, err
	}
	if !res.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed their checks", wl.name, res.Failed, res.Attempted)
	}
	return 0, nil
}

// tracedRun measures the workload twice, untraced then traced, for half
// the time each: the per-layer metrics come from the traced pass, and the
// difference between the two passes' primary metric is the tracing
// overhead. Layers the workload does not exercise itself are measured by
// the layer sweep on the workload's own instance family.
func tracedRun(wl workload, cfg runConfig) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := wl.run(half)
	if err != nil {
		return nil, err
	}
	half.rec = newRecorder()
	traced, err := wl.run(half)
	if err != nil {
		return nil, err
	}
	traced.checks.merge(plain.checks)
	fam, err := wl.family(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := layerSweep(fam, cfg, traced); err != nil {
		return nil, err
	}
	dec := half.rec.decompose(traced.layers)
	traced.decomposition = dec
	traced.layers.set("trace_overhead_pct", 100*(traced.primaryMs-plain.primaryMs)/plain.primaryMs, "%")
	if path, err := half.rec.write(wl.name, cfg.seed); err != nil {
		return nil, err
	} else {
		traced.provenance["spans"] = path
	}
	return traced, nil
}

func lookupWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// fullRecord is the result file: the printed result plus provenance, the
// workload's own metric names and the failed checks.
type fullRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      int            `json:"trace"`
	Host       map[string]any `json:"host"`
	Inputs     map[string]any `json:"inputs"`
	Named      metricSet      `json:"named"`
	Metrics    metricSet      `json:"metrics"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Failures   []string       `json:"failures,omitempty"`
	Decomposed *decomposition `json:"decomposition,omitempty"`
}

func writeRecord(r fullRecord) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostInfo is the provenance block written into every result.
func hostInfo(oneCPU bool) map[string]any {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"one_cpu":    oneCPU,
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"date_utc":   time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable prints the workload's own metric names, one per line.
func printTable(w io.Writer, name string, named metricSet) {
	keys := make([]string, 0, len(named))
	for k := range named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-14s %-26s %14.6g %s\n", name, k, named[k].Value, named[k].Unit)
	}
}
