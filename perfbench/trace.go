package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Spans recorded by the benchmark's own code around each call into a layer
// (client call, library call) during the traced pass. Spans of one request
// share Req; Parent names the span that caused this one. They stay in
// memory and are written out as JSONL when the benchmark ends.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the window opened
	Dur    float64 `json:"dur_ms"`
	// Job carries the daemon's per-phase spans for the job this call
	// created, joined from JobStatus.Spans, when the call returned one.
	Job []jobSpan `json:"job,omitempty"`
}

type jobSpan struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_ms"`
	Dur   float64 `json:"dur_ms"`
}

// tracer is nil on the timed (untraced) pass: every method is a no-op on a
// nil receiver, so that pass pays one pointer compare per call.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns a function that closes it.
func (t *tracer) begin(name string, req, parent int64) (id int64, end func(job []jobSpan)) {
	if t == nil {
		return 0, func([]jobSpan) {}
	}
	id = t.nextID.Add(1)
	start := time.Now()
	return id, func(job []jobSpan) {
		sp := span{
			ID: id, Parent: parent, Req: req, Name: name,
			Start: ms(start.Sub(t.t0)), Dur: ms(time.Since(start)), Job: job,
		}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// durations returns the durations (ms) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp.Dur)
		}
	}
	return out
}

func (t *tracer) jsonl() []byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range t.spans {
		_ = enc.Encode(sp) // spans hold only numbers and strings
	}
	return buf.Bytes()
}
