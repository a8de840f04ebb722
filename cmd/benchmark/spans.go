package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change).
type span struct {
	name   string
	start  time.Duration // since recorder epoch
	end    time.Duration
	parent int // index of the enclosing span, -1 at the root
	op     int // shared by every span of one cell or request
	lane   int // driver goroutine (Chrome tid)
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the "tracing off" state: begin and end cost one nil test, which is what
// every end-to-end measurement runs with.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its index (-1 with tracing off).
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, op: op, lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// spanTotals is the per-name aggregate: self time is a span's duration
// minus the part of it its direct children cover.
type spanTotals struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func (r *recorder) totals() []spanTotals {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*spanTotals{}
	for i, s := range r.spans {
		t := byName[s.name]
		if t == nil {
			t = &spanTotals{Name: s.name}
			byName[s.name] = t
		}
		d := s.end - s.start
		t.Count++
		t.Total += d
		t.Self += d - child[i]
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// total returns the summed duration of every span called name.
func (r *recorder) total(name string) time.Duration {
	for _, t := range r.totals() {
		if t.Name == name {
			return t.Total
		}
	}
	return 0
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto). Span ids are indices, so "parent" resolves within the file.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	evs := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		evs[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
