package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced runs call the same
// code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns its duration.
func (t *tracer) do(name string, parent, op int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// record adds an already-measured interval as a span.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// selfTimes returns each closed span's duration minus the part of its
// interval covered by its children.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[i] = time.Duration(s.End - s.Start - covered(kids[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// coverage is how much of the operations' wall time the timed layer
// calls account for: for each operation, the union of the intervals of
// every span below a span named layers (concurrent calls count once),
// summed and divided by the summed duration of the spans named op.
func (t *tracer) coverage(op, layers string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var opT, layerT int64
	under := make([]bool, len(t.spans))
	byOp := map[int][][2]int64{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		if s.Name == op {
			opT += s.End - s.Start
		}
		if s.Parent >= 0 && (under[s.Parent] || t.spans[s.Parent].Name == layers) {
			under[i] = true
			byOp[s.Op] = append(byOp[s.Op], [2]int64{s.Start, s.End})
		}
	}
	for _, iv := range byOp {
		layerT += covered(iv, math.MinInt64, math.MaxInt64)
	}
	if opT == 0 {
		return 0
	}
	return float64(layerT) / float64(opT)
}

// write dumps every span as JSON, with its self time.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	type out struct {
		span
		SelfNs int64 `json:"selfNs"`
	}
	spans := make([]out, len(t.spans))
	for i, s := range t.spans {
		spans[i] = out{s, int64(self[i])}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
