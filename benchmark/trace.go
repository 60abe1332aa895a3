package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation (a
// job, a mutate) share Op; Parent is the span that caused this one (0 =
// none). Times are microseconds since the tracer was created.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s Span) ms() float64 { return (s.EndUS - s.StartUS) / 1000 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
	ops   int
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewOp returns a fresh operation identifier.
func (t *Tracer) NewOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Start opens a span and returns its ID for End and for children's Parent.
func (t *Tracer) Start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartUS: now})
	return len(t.spans)
}

func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := float64(time.Since(t.t0)) / 1e3
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// Do runs f inside a span.
func (t *Tracer) Do(name string, parent, op int, f func()) {
	id := t.Start(name, parent, op)
	f()
	t.End(id)
}

// Spans returns the spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfMS is each span's duration minus the part of it its direct children
// cover, by span ID. Children of one parent run one after another here, so
// their durations add.
func selfMS(spans []Span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.ms()
		if s.Parent != 0 {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// byName groups span durations (ms) by span name.
func byName(spans []Span) map[string]*Sample {
	out := make(map[string]*Sample)
	for _, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = &Sample{}
		}
		out[s.Name].Add(s.ms())
	}
	return out
}

// writeTrace writes the spans, with their self times, to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, env Env, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type spanOut struct {
		Span
		SelfMS float64 `json:"self_ms"`
	}
	self := selfMS(spans)
	out := struct {
		Workload string    `json:"workload"`
		Env      Env       `json:"env"`
		Spans    []spanOut `json:"spans"`
	}{Workload: workload, Env: env}
	for _, s := range spans {
		out.Spans = append(out.Spans, spanOut{s, self[s.ID]})
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	file := filepath.Join(dir, "trace-"+workload+".json")
	return file, os.WriteFile(file, append(blob, '\n'), 0o644)
}
