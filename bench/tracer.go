package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// tracer keeps the spans the harness records around each call it makes
// into a layer (name = "layer.call"). Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON. Spans inside the product are a
// later change; these are taken from outside, in the harness's own files.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []hspan
	rep   int // stamped on every span begun while it holds
}

type hspan struct {
	name       string
	start, end time.Duration
	parent     int // index into spans, -1 for a root
	rep        int
	track      int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// track is one goroutine's span stack. A nil *track records nothing, so
// untraced runs pay one nil check per call site.
type track struct {
	tr    *tracer
	id    int
	stack []int
}

func (t *tracer) track(id int) *track {
	if t == nil {
		return nil
	}
	return &track{tr: t, id: id}
}

func noop() {}

// span begins a span and returns the function that ends it.
func (k *track) span(name string) func() {
	if k == nil {
		return noop
	}
	parent := -1
	if n := len(k.stack); n > 0 {
		parent = k.stack[n-1]
	}
	t := k.tr
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, hspan{name: name, start: time.Since(t.t0), parent: parent, rep: t.rep, track: k.id})
	t.mu.Unlock()
	k.stack = append(k.stack, idx)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[idx].end = end
		t.mu.Unlock()
		k.stack = k.stack[:len(k.stack)-1]
	}
}

func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// selfTimes sums, per layer (the part of the name before the dot), each
// span's duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		out[layer] += s.end - s.start - child[i]
	}
	return out
}

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"id": i, "rep": s.rep}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, event{Name: s.name, Cat: layer, Ph: "X",
			TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: s.track, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
