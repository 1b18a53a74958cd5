package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// operation share Req; Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLayers are the layers span names are attributed to: a span named
// "gateway.handler" belongs to layer "gateway". "bench" is the benchmark's
// own per-operation work (oracle checks, digests).
var spanLayers = []string{"bench", "client", "gateway", "serve", "gpufpx", "device", "report", "campaign"}

// Recorder keeps spans in memory for the length of a traced run.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	open  map[string]int // name+"\x00"+req → latest span ID, for cross-layer parents
}

func NewRecorder() *Recorder { return &Recorder{t0: time.Now(), open: map[string]int{}} }

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name, req string, parent int) int {
	return r.BeginAt(name, req, parent, time.Now())
}

// BeginAt opens a span that started at t.
func (r *Recorder) BeginAt(name, req string, parent int, t time.Time) int {
	now := int64(t.Sub(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: now})
	if req != "" {
		r.open[name+"\x00"+req] = id
	}
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Lookup returns the latest span named name for req, or 0. Layers that only
// see a request id (HTTP handlers) find their parent span this way.
func (r *Recorder) Lookup(name, req string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open[name+"\x00"+req]
}

// Durations returns the durations of the closed spans named name, keyed by
// request id.
func (r *Recorder) Durations(name string) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out[s.Req] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// SelfTimes sums each layer's self time — a span's duration minus the part
// its child spans cover — over all closed spans.
func (r *Recorder) SelfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		if s.End == 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// WriteFile writes every span as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// span opens a span when tracing is on; the returned func closes it. It
// keeps untraced call sites to one line.
func (e *env) span(name, req string, parent int) (int, func()) {
	if e.rec == nil {
		return 0, func() {}
	}
	id := e.rec.Begin(name, req, parent)
	return id, func() { e.rec.End(id) }
}

// selfTimeMetrics reports each layer's self time per operation.
func selfTimeMetrics(r *Recorder, ops int, m map[string]float64) {
	if ops == 0 {
		return
	}
	for layer, d := range r.SelfTimes() {
		m["self_ms."+layer] = ms(d) / float64(ops)
	}
}
