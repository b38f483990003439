package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory and writes them out
// when the run ends. Spans are recorded by the benchmark around its calls
// into each layer; a span's name is "<layer>.<call>", and the layer
// "bench" marks the benchmark's own operation roots. A nil recorder
// records nothing.
type recorder struct {
	mu     sync.Mutex
	base   time.Time
	nextID int64
	spans  []spanRec
}

// spanRec is one span. Parent is 0 for a root; Trace groups the spans of
// one operation (a slot, a lookup, a solve). Times are nanoseconds since
// the recorder started. Derived spans were not timed around a call but
// reconstructed from a counter the layer reports (their duration is
// exact, their placement inside the parent is not).
type spanRec struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), spans: make([]spanRec, 0, 1<<16)}
}

// reserve allocates a span id before the span's end is known, so child
// spans recorded during a call can name it as their parent.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

// add records a finished span under a reserved id (0 allocates one).
func (r *recorder) add(id, trace, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	return r.addNanos(id, trace, parent, name, start.Sub(r.base).Nanoseconds(), end.Sub(r.base).Nanoseconds(), false)
}

func (r *recorder) addNanos(id, trace, parent int64, name string, start, end int64, derived bool) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.nextID++
		id = r.nextID
	}
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Derived: derived})
	return id
}

// since converts a wall-clock instant to recorder nanoseconds.
func (r *recorder) since(t time.Time) int64 { return t.Sub(r.base).Nanoseconds() }

// layers are the program layers a span can be attributed to, in report
// order; time in a "bench" root not covered by any of them is the
// unattributed remainder.
var layers = []string{"experiments", "core", "controlplane", "distsim"}

// decomposition states an operation's mean time as the sum of the layer
// self times plus the unattributed remainder.
type decomposition struct {
	Op             string             `json:"op"`
	Ops            int                `json:"ops"`
	OpMs           float64            `json:"op_ms"`
	SelfMs         map[string]float64 `json:"self_ms"`
	UnattributedMs float64            `json:"unattributed_ms"`
	SumMs          float64            `json:"sum_ms"`
}

// decompose computes the per-layer self times of the traced run's
// primary operation (the roots named "bench.<op>" that the workload
// marked primary) and adds them to dst as trace.* metrics.
func (r *recorder) decompose(dst metricSet) *decomposition {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()

	byTrace := map[int64][]int{}
	for k, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], k)
	}
	dec := &decomposition{SelfMs: map[string]float64{}}
	for _, l := range layers {
		dec.SelfMs[l] = 0
	}
	var total float64
	for _, idx := range byTrace {
		var root *spanRec
		for _, k := range idx {
			if s := &spans[k]; s.Parent == 0 && strings.HasPrefix(s.Name, "bench.") {
				root = s
			}
		}
		if root == nil || root.Name != primaryOp {
			continue
		}
		dec.Ops++
		total += float64(root.End - root.Start)
		for _, k := range idx {
			s := spans[k]
			self := float64(s.End-s.Start) - covered(s, spans, idx)
			layer, _, _ := strings.Cut(s.Name, ".")
			if layer == "bench" {
				dec.UnattributedMs += self
			} else {
				dec.SelfMs[layer] += self
			}
		}
	}
	dec.Op = primaryOp
	n := float64(max(dec.Ops, 1)) * 1e6
	dec.OpMs = total / n
	dec.UnattributedMs /= n
	dec.SumMs = dec.UnattributedMs
	for _, l := range layers {
		dec.SelfMs[l] /= n
		dec.SumMs += dec.SelfMs[l]
		dst.set("trace."+l+"_self_ms", dec.SelfMs[l], "ms")
	}
	dst.set("trace.op_ms", dec.OpMs, "ms")
	dst.set("trace.unattributed_ms", dec.UnattributedMs, "ms")
	return dec
}

// primaryOp names the root span of the operation the traced run
// decomposes; every workload names its primary roots this way.
const primaryOp = "bench.op"

// covered returns how much of s's interval its direct children cover
// (the union of their intervals, clipped to s).
func covered(s spanRec, spans []spanRec, idx []int) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range idx {
		c := spans[k]
		if c.Parent != s.ID {
			continue
		}
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var tot, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			tot += v.b - v.a
			end = v.b
		} else if v.b > end {
			tot += v.b - end
			end = v.b
		}
	}
	return float64(tot)
}

// write stores the spans as JSON lines and returns the file's path.
func (r *recorder) write(workload string, seed int64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the encode error is the one reported
			return "", err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return "", err
	}
	return path, f.Close()
}
