package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Spans are recorded by the benchmark itself, around each public call an op
// makes into the program; tracing inside the program is a later change.
// They stay in memory until the run ends.

// span is one timed interval. Spans of one op share Op; Parent is the ID of
// the enclosing span (-1 for the op's root span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one op. A nil *opTrace records nothing, so
// the untraced path pays one nil check per call.
type opTrace struct {
	t       *tracer
	op      int
	root    int
	endRoot func()
}

func noop() {}

func (t *tracer) open(op, parent int, name string) (id int, end func()) {
	start := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	id = len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.epoch).Seconds()
		t.mu.Lock()
		t.spans[id].End = end
		t.mu.Unlock()
	}
}

// beginOp opens the root span of a new op. The op closes it with finish
// when it stops its clock, so the root span is the op's timed section.
func (t *tracer) beginOp() *opTrace {
	t.mu.Lock()
	op := t.ops
	t.ops++
	t.mu.Unlock()
	root, end := t.open(op, -1, "op")
	return &opTrace{t: t, op: op, root: root, endRoot: end}
}

func (o *opTrace) finish() {
	if o != nil {
		o.endRoot()
	}
}

// span opens a child of the op's root span and returns its closer.
func (o *opTrace) span(name string) func() {
	if o == nil {
		return noop
	}
	_, end := o.t.open(o.op, o.root, name)
	return end
}

// spanSummary is one span name's per-op medians: total time and self time
// (its duration minus the part its children cover).
type spanSummary struct {
	Name    string  `json:"name"`
	Ops     int     `json:"ops"`
	MedianS float64 `json:"median_s"`
	SelfS   float64 `json:"self_median_s"`
}

// summarize groups spans by name. A name that occurs several times in one
// op is summed within the op first.
func (t *tracer) summarize() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64) // span ID -> time covered by children
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type key struct {
		name string
		op   int
	}
	total := make(map[key]float64)
	self := make(map[key]float64)
	for _, s := range t.spans {
		k := key{s.Name, s.Op}
		total[k] += s.End - s.Start
		self[k] += s.End - s.Start - child[s.ID]
	}
	byName := make(map[string][2][]float64)
	for k, v := range total {
		e := byName[k.name]
		e[0] = append(e[0], v)
		e[1] = append(e[1], self[k])
		byName[k.name] = e
	}
	out := make([]spanSummary, 0, len(byName))
	for name, e := range byName {
		out = append(out, spanSummary{Name: name, Ops: len(e[0]), MedianS: median(e[0]), SelfS: median(e[1])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores every span as one JSON file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
