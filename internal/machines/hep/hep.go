// Package hep models the Denelcor HEP (paper footnote 2; Smith 1978): a
// pipelined MIMD machine whose processors multiplex many hardware process
// contexts, synchronizing through full/empty bits on shared memory cells.
// An unsatisfiable access — consuming an empty cell, producing into a full
// one — is not deferred: the hardware retries it, burning memory bandwidth
// until it succeeds ("there is no such thing as a deferred read list").
//
// The model assembles k-context vn cores over a shared full/empty memory
// whose retry traffic is counted, making the contrast with I-structure
// deferral (internal/istructure) directly measurable.
package hep

import (
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vn"
)

// Config sizes the machine.
type Config struct {
	Processors      int
	ContextsPerCore int
	// MemLatency is the response time after service.
	MemLatency sim.Cycle
}

// memService is the bank occupancy per attempt, failed and retried
// attempts included.
const memService sim.Cycle = 1

func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = 1
	}
	if c.ContextsPerCore == 0 {
		c.ContextsPerCore = 8
	}
	if c.MemLatency == 0 {
		c.MemLatency = 2
	}
	return c
}

// FullEmptyMemory is shared memory with a full/empty bit per word. CNS and
// PRD requests that find the wrong state go to the back of the queue and
// try again — hardware busy-waiting, visible in Retries.
type FullEmptyMemory struct {
	latency   sim.Cycle
	words     map[uint32]vn.Word
	full      map[uint32]bool
	queue     sim.FIFO[vn.MemRequest]
	busyUntil sim.Cycle
	due       sim.FIFO[dueCompleted]
	pending   int

	// Served counts service slots consumed (including failed attempts);
	// Retries counts the failed attempts themselves.
	Served  metrics.Counter
	Retries metrics.Counter

	waker sim.Waker
}

// Attach receives the engine's waker (sim.Wakeable).
func (m *FullEmptyMemory) Attach(w sim.Waker) { m.waker = w }

type completed struct {
	r vn.MemRequest
	v vn.Word
}

// dueCompleted is a serviced request awaiting response delivery; service
// times are nondecreasing, so a FIFO keeps completions sorted by due cycle.
type dueCompleted struct {
	at sim.Cycle
	c  completed
}

// NewFullEmptyMemory returns an empty memory (all cells empty).
func NewFullEmptyMemory(latency sim.Cycle) *FullEmptyMemory {
	return &FullEmptyMemory{
		latency: latency,
		words:   map[uint32]vn.Word{},
		full:    map[uint32]bool{},
	}
}

// Request queues a memory operation.
func (m *FullEmptyMemory) Request(r vn.MemRequest) {
	m.queue.Push(r)
	m.pending++
	if m.waker != nil {
		if t := m.NextEvent(m.waker.Now()); t != sim.Never {
			m.waker.Wake(m, t)
		}
	}
}

// Pending reports queued plus in-flight requests.
func (m *FullEmptyMemory) Pending() int { return m.pending }

// Peek reads a value regardless of state.
func (m *FullEmptyMemory) Peek(addr uint32) vn.Word { return m.words[addr] }

// Full reports a cell's state.
func (m *FullEmptyMemory) Full(addr uint32) bool { return m.full[addr] }

// Step services one attempt per service time and delivers due responses.
func (m *FullEmptyMemory) Step(now sim.Cycle) {
	for m.due.Len() > 0 && m.due.Peek().at <= now {
		d := m.due.Pop()
		m.pending--
		if d.c.r.Done != nil {
			d.c.r.Done(d.c.v)
		}
	}
	if now < m.busyUntil || m.queue.Len() == 0 {
		return
	}
	r := m.queue.Pop()
	m.busyUntil = now + memService
	m.Served.Inc()

	var v vn.Word
	switch r.Op {
	case vn.MemConsume:
		if !m.full[r.Addr] {
			m.Retries.Inc()
			m.queue.Push(r) // busy-wait: go around again
			return
		}
		v = m.words[r.Addr]
		m.full[r.Addr] = false
	case vn.MemProduce:
		if m.full[r.Addr] {
			m.Retries.Inc()
			m.queue.Push(r)
			return
		}
		m.words[r.Addr] = r.Value
		m.full[r.Addr] = true
	case vn.MemRead:
		v = m.words[r.Addr]
	case vn.MemWrite:
		m.words[r.Addr] = r.Value
		m.full[r.Addr] = true
	case vn.MemFetchAdd:
		v = m.words[r.Addr]
		m.words[r.Addr] = v + r.Value
		m.full[r.Addr] = true
	case vn.MemTestSet:
		v = m.words[r.Addr]
		m.words[r.Addr] = 1
		m.full[r.Addr] = true
	}
	m.due.Push(dueCompleted{at: now + m.latency, c: completed{r: r, v: v}})
}

// NextEvent reports the earliest cycle the memory can act: the next
// response delivery, or the end of the current service slot while attempts
// (including busy-wait retries) are queued.
func (m *FullEmptyMemory) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	if m.due.Len() > 0 {
		next = m.due.Peek().at
	}
	if m.queue.Len() > 0 && m.busyUntil < next {
		next = m.busyUntil
	}
	if next < now {
		next = now
	}
	return next
}

// Machine is the assembled HEP model: every core shares one full/empty
// memory (the HEP's data memory was likewise shared through its switch).
type Machine struct {
	cfg    Config
	cores  []*vn.Core
	mem    *FullEmptyMemory
	engine *sim.Engine
}

// New builds the machine, loading prog into every context of every core.
func New(cfg Config, prog *vn.Program) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{cfg: cfg, mem: NewFullEmptyMemory(cfg.MemLatency)}
	for p := 0; p < cfg.Processors; p++ {
		c := vn.NewCore(prog, m.mem, cfg.ContextsPerCore)
		c.SetSaveID(p)
		m.cores = append(m.cores, c)
	}
	m.engine = sim.NewEngine()
	m.engine.Register(m.mem)
	for _, c := range m.cores {
		m.engine.Register(c)
	}
	return m
}

// Core returns processor p.
func (m *Machine) Core(p int) *vn.Core { return m.cores[p] }

// NumProcessors returns the processor count.
func (m *Machine) NumProcessors() int { return len(m.cores) }

// Memory returns the shared full/empty memory.
func (m *Machine) Memory() *FullEmptyMemory { return m.mem }

// Halted reports whether every context of every core halted.
func (m *Machine) Halted() bool {
	for _, c := range m.cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// Run drives the shared engine until everything halts and memory drains.
// A core's address fault is returned as the error. Stopping at limit
// is a sim.ErrLimit pause.
func (m *Machine) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := m.engine.Run(func() bool {
		return m.Halted() && m.mem.Pending() == 0
	}, limit)
	if err := vn.FirstFault(m.cores); err != nil {
		return elapsed, err
	}
	if !ok {
		return elapsed, sim.Limitf("hep: did not halt within %d cycles", limit)
	}
	return elapsed, nil
}

// Engine exposes the simulation engine (scheduling counters).
func (m *Machine) Engine() *sim.Engine { return m.engine }
