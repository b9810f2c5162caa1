package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced call from the benchmark into the program.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin; end < 0 while open
	parent     int           // span id, 0 for a workload's root span
	lane       int           // client goroutine, for the viewer's rows
	cycle      int
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (t *tracer) begin(name string, parent, lane, cycle int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, lane: lane, cycle: cycle})
	return len(t.spans)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// traceEvent is one complete ("X") event of the Chrome trace format,
// which chrome://tracing and ui.perfetto.dev open directly.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome-trace JSON. Open spans are written
// with a negative duration so that a reader can tell.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "cycle": s.cycle, "workload": workload},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
