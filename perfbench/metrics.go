package main

import (
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// fill copies every metric of src that m does not have yet.
func (m metricSet) fill(src metricSet) {
	for k, v := range src {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}

// outcome is what one workload pass measured and checked.
type outcome struct {
	endToEnd metricSet // the benchmark's end-to-end names (BENCHMARK.json)
	named    metricSet // the workload's own names (README table)
	layers   metricSet // per-layer metrics, filled by traced passes
	checks   checkTally
	// primaryMs is the mean time of the workload's operation: the
	// quantity the traced run decomposes into layer self times.
	primaryMs     float64
	provenance    map[string]any
	decomposition *decomposition
}

func newOutcome() *outcome {
	return &outcome{
		endToEnd:   metricSet{},
		named:      metricSet{},
		layers:     metricSet{},
		provenance: map[string]any{},
	}
}

// checkTally counts operations against the ones that failed a check.
type checkTally struct {
	attempted int
	failed    int
	failures  []string // the first few reasons
}

const maxFailureReasons = 20

func (c *checkTally) record(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.failures) < maxFailureReasons {
		c.failures = append(c.failures, err.Error())
	}
}

func (c *checkTally) merge(o checkTally) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, f := range o.failures {
		if len(c.failures) < maxFailureReasons {
			c.failures = append(c.failures, f)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapTracker records the peak heap in use: the live heap measured by a
// forced collection at each of the workload's checkpoints (after every
// set-up and at the end of every measured phase). Reading the heap at
// collections the runtime starts by itself would depend on when they
// happen to run, since objects allocated during a cycle count as live.
// A nil tracker records nothing.
type heapTracker struct {
	peak float64 // bytes
}

func (h *heapTracker) checkpoint() {
	if h == nil {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.peak = max(h.peak, float64(ms.HeapAlloc))
}
