package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into each
// module's public functions, and writes them out as Chrome trace-event
// JSON when the run ends (viewable in Perfetto or chrome://tracing). A nil
// *tracer is the untraced run: every method is a no-op, so the timed loops
// call it unconditionally.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// span is one timed call. ID is the span's index plus one; Parent is the
// ID of the span that caused it (0 for a root), and Req groups the spans
// of one request or pass.
type span struct {
	Name       string
	Start, End time.Time
	ID, Parent int
	Req        int64
	Lane       int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int, req int64, lane int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Req: req, Lane: lane, ID: len(t.spans) + 1})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as the
// server time a response reports in its X-Wall-Ms header.
func (t *tracer) add(name string, parent int, req int64, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req, Lane: lane, ID: len(t.spans) + 1})
	return len(t.spans)
}

// coverage is the share of the named spans' total duration that their
// direct children cover: how much of the time the trace attributes to a
// layer below.
func (t *tracer) coverage(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent, child time.Duration
	isParent := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == name && !s.End.IsZero() {
			isParent[s.ID] = true
			parent += s.End.Sub(s.Start)
		}
	}
	for _, s := range t.spans {
		if isParent[s.Parent] && !s.End.IsZero() {
			child += s.End.Sub(s.Start)
		}
	}
	return ratio(float64(child), float64(parent))
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event document. other
// carries the run's stamp and per-layer numbers alongside the events.
func (t *tracer) writeChrome(w io.Writer, other map[string]any) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": other})
}
