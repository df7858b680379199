package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that was open when this one began (-1 for a root); ids index the
// tracer's span list.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
}

// tracer keeps spans in memory until the run ends. Every workload is
// driven by one goroutine, so the open spans form a stack. A nil tracer
// records nothing: the untraced run passes nil.
type tracer struct {
	workload string
	rep      int
	epoch    time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.DurNS = time.Since(t.epoch).Nanoseconds() - s.StartNS
}

// selfNS returns, per span, its duration minus the durations of its
// direct children. Children of one parent never overlap here (one
// goroutine), so the sum is the part of the interval they cover.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.DurNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.DurNS
		}
	}
	return self
}

// byName collects the durations (or self times) of every span of a name,
// in seconds.
func byName(spans []span, ns []int64, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(ns[i])/1e9)
		}
	}
	return out
}

func durations(spans []span) []int64 {
	d := make([]int64, len(spans))
	for i, s := range spans {
		d[i] = s.DurNS
	}
	return d
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
