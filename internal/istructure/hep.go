package istructure

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// HEPModule is the Denelcor-HEP-style contrast to I-structure storage
// (paper footnote 2): cells carry a full/empty bit, but there is no
// deferred read list. A read of an empty cell is NACKed and the requester
// must retry — busy-waiting that consumes both controller and network
// bandwidth. E4 measures that waste against I-structure deferral.
type HEPModule struct {
	size    uint32
	full    []bool
	values  []interface{}
	respond func(HEPResponse)

	queue     []Request
	busyUntil sim.Cycle
	stats     HEPStats
}

// HEPResponse reports a read or write outcome; OK=false means the read
// found the cell empty (or, for writes with the synchronizing discipline,
// found it full) and must be retried.
type HEPResponse struct {
	Addr    uint32
	Value   interface{}
	OK      bool
	ReplyTo interface{}
}

// HEPStats aggregates measurements, Retries being the busy-wait traffic.
type HEPStats struct {
	Reads   metrics.Counter
	Writes  metrics.Counter
	Retries metrics.Counter // NACKed reads
	Busy    metrics.Counter
}

// NewHEP returns a full/empty memory serving [0, size).
func NewHEP(size uint32, respond func(HEPResponse)) *HEPModule {
	return &HEPModule{
		size:    size,
		full:    make([]bool, size),
		values:  make([]interface{}, size),
		respond: respond,
	}
}

// Stats returns the module's measurements.
func (m *HEPModule) Stats() *HEPStats { return &m.stats }

// Enqueue hands a request to the controller.
func (m *HEPModule) Enqueue(r Request) error {
	if r.Addr >= m.size {
		return fmt.Errorf("istructure: address %d outside HEP module [0,%d)", r.Addr, m.size)
	}
	m.queue = append(m.queue, r)
	return nil
}

// Step advances one cycle, servicing at most one request.
func (m *HEPModule) Step(now sim.Cycle) {
	if now < m.busyUntil {
		m.stats.Busy.Inc()
		return
	}
	if len(m.queue) == 0 {
		return
	}
	r := m.queue[0]
	copy(m.queue, m.queue[1:])
	m.queue = m.queue[:len(m.queue)-1]
	m.stats.Busy.Inc()
	m.busyUntil = now + readTime
	i := r.Addr
	switch r.Op {
	case OpRead:
		m.stats.Reads.Inc()
		if !m.full[i] {
			m.stats.Retries.Inc()
			m.respond(HEPResponse{Addr: r.Addr, OK: false, ReplyTo: r.ReplyTo})
			return
		}
		m.respond(HEPResponse{Addr: r.Addr, Value: m.values[i], OK: true, ReplyTo: r.ReplyTo})
	case OpWrite:
		m.stats.Writes.Inc()
		m.full[i] = true
		m.values[i] = r.Value
	}
}
