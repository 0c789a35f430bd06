package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// TraceEvent is one recorded machine event.
type TraceEvent struct {
	Cycle  sim.Cycle
	PE     int
	Kind   TraceKind
	Detail string
}

// TraceKind classifies trace events.
type TraceKind uint8

// Trace event kinds.
const (
	TraceFire   TraceKind = iota // ALU executed an instruction
	TraceISRead                  // d=1 read request issued
	TraceISWrite
	TraceGetCtx // d=2 context allocation served
	TraceAlloc  // d=2 structure allocation served
	TraceResult // a value returned in context 0
)

var traceKindNames = [...]string{
	TraceFire: "fire", TraceISRead: "is-read", TraceISWrite: "is-write",
	TraceGetCtx: "getc", TraceAlloc: "alloc", TraceResult: "result",
}

func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Tracer records machine events into a bounded ring buffer. Attach one via
// Config.Trace; a nil tracer costs nothing on the hot path.
type Tracer struct {
	ring  []TraceEvent
	next  int
	total uint64
}

// NewTracer returns a tracer keeping the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]TraceEvent, 0, capacity)}
}

// record appends an event, evicting the oldest past capacity.
func (t *Tracer) record(e TraceEvent) {
	t.total++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % cap(t.ring)
}

// Total reports how many events were observed (including evicted ones).
func (t *Tracer) Total() uint64 { return t.total }

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []TraceEvent {
	if len(t.ring) < cap(t.ring) {
		return append([]TraceEvent(nil), t.ring...)
	}
	out := make([]TraceEvent, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dump writes the retained events as aligned text.
func (t *Tracer) Dump(w io.Writer) {
	events := t.Events()
	fmt.Fprintf(w, "trace: %d events observed, last %d retained\n", t.total, len(events))
	for _, e := range events {
		fmt.Fprintf(w, "  [%8d] PE%-3d %-8s %s\n", e.Cycle, e.PE, e.Kind, e.Detail)
	}
}

// String renders the dump.
func (t *Tracer) String() string {
	var b strings.Builder
	t.Dump(&b)
	return b.String()
}

// trace records an event if tracing is enabled. Call sites on the hot
// path also guard it with a Config.Trace nil check: the variadic arguments
// are boxed into interfaces before the call, so an unguarded call
// allocates on every firing even with tracing off.
func (pe *PE) trace(kind TraceKind, format string, args ...interface{}) {
	tr := pe.m.cfg.Trace
	if tr == nil {
		return
	}
	tr.record(TraceEvent{
		Cycle:  pe.m.now,
		PE:     pe.id,
		Kind:   kind,
		Detail: fmt.Sprintf(format, args...),
	})
}
