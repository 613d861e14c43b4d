package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since the tracer was made;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// Iterations below zero mark spans recorded outside the timed loop.
const (
	iterSetup  = -1
	iterWarmup = -2
	iterLayers = -3
)

// tracer keeps spans in memory; every call into a layer is made from the
// benchmark's one driving goroutine, so the open spans form a stack. A
// nil tracer records nothing: the untraced pass pays two clock reads a
// call and no more.
type tracer struct {
	t0       time.Time
	workload string
	iter     int
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload, iter: iterSetup}
}

func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Workload: t.workload,
		Iter: t.iter, Parent: parent, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// child records an interval the called layer reports about itself (the
// wall time of the simulated world inside an application's Run) as a
// finished child of the open span, ending now.
func (t *tracer) child(name, layer string, d time.Duration) {
	if t == nil {
		return
	}
	id := t.begin(name, layer)
	t.end(id)
	t.spans[id].Start = t.spans[id].End - int64(d)
}

// selfTimes returns, per iteration, each layer's self time in seconds:
// a span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[int]map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		if out[s.Iter] == nil {
			out[s.Iter] = map[string]float64{}
		}
		out[s.Iter][s.Layer] += float64(self[i]) / 1e9
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
