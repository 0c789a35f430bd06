// Package istructure implements I-structure storage (Section 2.1, Figure
// 2-1): memory whose cells carry presence bits and whose controller defers
// read requests that arrive before the corresponding write, forwarding the
// datum to every deferred reader when the write lands.
//
// The package also provides a Denelcor-HEP-style full/empty memory
// (footnote 2 of the paper) in which unsatisfiable reads are NACKed and the
// requester must busy-wait, for the E4 comparison between deferral and
// retry.
package istructure

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// CellState is the presence-bit state of one storage cell.
type CellState uint8

// Cell states, as in Figure 2-1.
const (
	Empty    CellState = iota // never written, no waiting readers
	Deferred                  // never written, readers waiting
	Present                   // written
)

func (s CellState) String() string {
	switch s {
	case Empty:
		return "empty"
	case Deferred:
		return "deferred"
	case Present:
		return "present"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Op is the request type handled by the controller.
type Op uint8

// Controller operations.
const (
	OpRead Op = iota
	OpWrite
)

// Controller occupancy per operation: a read costs a conventional memory
// access, and "write operations take twice as long ... due to the
// prefetching of presence bits". A HEP full/empty access costs a read.
const (
	readTime  sim.Cycle = 1
	writeTime sim.Cycle = 2
)

// Request is one packet-carried operation on I-structure storage. ReplyTo
// is an opaque continuation (the machine puts a token tag here) returned
// verbatim on the response.
type Request struct {
	Op      Op
	Addr    uint32
	Value   interface{}
	ReplyTo interface{}
}

// Response carries a fetched value back to the requester.
type Response struct {
	Addr    uint32
	Value   interface{}
	ReplyTo interface{}
}

// cell is one word of I-structure storage plus its presence bits and
// deferred read list.
type cell struct {
	state   CellState
	value   interface{}
	waiters []interface{} // ReplyTo continuations of deferred readers
}

// Stats aggregates controller measurements.
type Stats struct {
	Reads          metrics.Counter
	Writes         metrics.Counter
	DeferredReads  metrics.Counter // reads that arrived before the write
	ImmediateReads metrics.Counter
	Errors         metrics.Counter
	// DeferListLen observes the deferred-list length consumed by each
	// write that found waiters.
	DeferListLen *metrics.Histogram
	// Outstanding tracks currently-deferred reads (peak = storage the
	// controller must dedicate to the deferred lists).
	Outstanding metrics.Gauge
	// Busy counts controller-occupied cycles.
	Busy metrics.Counter
}

// cellTable stores the module's touched cells: an open-addressed hash
// table keyed by module-relative cell index over a slab of cell records
// (graph.MatchTable's idiom). Modules are routinely configured with tens
// of thousands of cells of which a run touches a handful; hashing makes
// construction allocation-free and run cost proportional to the cells
// actually used, where the earlier page array paid a headers slice sized
// for the whole address space per module.
// Cells are never deleted, so the table needs no tombstones or
// backward-shift machinery.
type cellTable struct {
	keys []uint32
	// idx[b] is the slab index of the entry in bucket b, or cellEmpty.
	idx  []int32
	mask uint32
	n    int
	slab []cell
}

const cellEmpty = int32(-1)

func (t *cellTable) init(buckets int) {
	t.keys = make([]uint32, buckets)
	t.idx = make([]int32, buckets)
	for i := range t.idx {
		t.idx[i] = cellEmpty
	}
	t.mask = uint32(buckets - 1)
	t.n = 0
}

// hashCell is a fixed (seedless) 32-bit mix so runs stay reproducible.
func hashCell(k uint32) uint32 {
	k ^= k >> 16
	k *= 0x7feb352d
	k ^= k >> 15
	k *= 0x846ca68b
	k ^= k >> 16
	return k
}

// lookup returns the cell for index k, or nil when never touched. The
// pointer stays valid until the next get (which may grow the slab).
func (t *cellTable) lookup(k uint32) *cell {
	if t.n == 0 {
		return nil
	}
	b := hashCell(k) & t.mask
	for {
		s := t.idx[b]
		if s == cellEmpty {
			return nil
		}
		if t.keys[b] == k {
			return &t.slab[s]
		}
		b = (b + 1) & t.mask
	}
}

// get returns the cell for index k, inserting a zeroed (Empty) one when
// absent.
func (t *cellTable) get(k uint32) *cell {
	if t.idx == nil {
		t.init(16)
	}
	b := hashCell(k) & t.mask
	for {
		s := t.idx[b]
		if s == cellEmpty {
			break
		}
		if t.keys[b] == k {
			return &t.slab[s]
		}
		b = (b + 1) & t.mask
	}
	if uint32(t.n) >= (t.mask+1)/4*3 {
		t.grow()
		b = hashCell(k) & t.mask
		for t.idx[b] != cellEmpty {
			b = (b + 1) & t.mask
		}
	}
	s := int32(len(t.slab))
	t.slab = append(t.slab, cell{})
	t.keys[b] = k
	t.idx[b] = s
	t.n++
	return &t.slab[s]
}

// grow doubles the bucket array and rehashes every binding.
func (t *cellTable) grow() {
	oldKeys, oldIdx := t.keys, t.idx
	t.init(int(2 * (t.mask + 1)))
	n := 0
	for b, s := range oldIdx {
		if s != cellEmpty {
			bb := hashCell(oldKeys[b]) & t.mask
			for t.idx[bb] != cellEmpty {
				bb = (bb + 1) & t.mask
			}
			t.keys[bb] = oldKeys[b]
			t.idx[bb] = s
			n++
		}
	}
	t.n = n
}

// Module is a cycle-stepped I-structure storage controller serving the
// address range [0, size). Requests queue at the controller; a read
// occupies it for readTime cycles and a write for writeTime cycles.
type Module struct {
	size    uint32
	cells   cellTable // touched cells only
	respond func(Response)

	queue     sim.FIFO[Request]
	busyUntil sim.Cycle
	lastStep  sim.Cycle // last cycle Step ran, for busy settlement
	stats     Stats
	// faulted marks the first write that found its cell already written,
	// and fault names that cell (see Fault).
	faulted bool
	fault   uint32
}

// cellAt returns the cell for module-relative index i, materializing it
// (state Empty) on first touch.
func (m *Module) cellAt(i uint32) *cell { return m.cells.get(i) }

// peekCell returns the cell for index i without materializing, or nil when
// it was never touched (state Empty, value nil).
func (m *Module) peekCell(i uint32) *cell { return m.cells.lookup(i) }

// New returns an I-structure module of size cells; respond receives
// fetched values (immediate or previously deferred).
func New(size uint32, respond func(Response)) *Module {
	m := &Module{size: size, respond: respond}
	m.stats.DeferListLen = metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128)
	return m
}

// Stats returns the controller's measurements.
func (m *Module) Stats() *Stats { return &m.stats }

// OutstandingDeferred returns the number of reads currently deferred.
func (m *Module) OutstandingDeferred() int { return int(m.stats.Outstanding.Level()) }

// Fault reports the first single-assignment violation the controller met:
// a write to a cell whose presence bits already say written. That write is
// counted in Stats.Errors and dropped. ok is false while every write has
// found its cell unwritten.
func (m *Module) Fault() (addr uint32, ok bool) { return m.fault, m.faulted }

// Enqueue hands a request to the controller. The caller is responsible for
// routing: Addr must be in range.
func (m *Module) Enqueue(r Request) error {
	if r.Addr >= m.size {
		return fmt.Errorf("istructure: address %d outside module [0,%d)", r.Addr, m.size)
	}
	m.queue.Push(r)
	return nil
}

// Idle reports whether the controller has no queued work.
func (m *Module) Idle() bool { return m.queue.Len() == 0 }

// NextEvent reports the earliest cycle at or after now at which stepping
// the controller does anything: now when a request can be serviced, the
// busy-until cycle while one is occupying the controller, or sim.Never
// when the queue is empty. (A busy controller with an empty queue needs no
// step: settleBusy reconstructs its occupancy statistics.)
func (m *Module) NextEvent(now sim.Cycle) sim.Cycle {
	if m.queue.Len() == 0 {
		return sim.Never
	}
	if m.busyUntil > now {
		return m.busyUntil
	}
	return now
}

// settleBusy credits the occupied-controller cycles a per-cycle stepper
// would have counted in (m.lastStep, now): one Busy tick per cycle the
// controller was within a request's service time. Keeps the Busy counter
// bit-identical to per-cycle stepping when idle cycles are skipped.
func (m *Module) settleBusy(now sim.Cycle) {
	end := m.busyUntil
	if now < end {
		end = now
	}
	if end > m.lastStep+1 {
		m.stats.Busy.Add(uint64(end - m.lastStep - 1))
	}
	m.lastStep = now
}

// FinishStats settles per-cycle statistics through end-of-run cycle now
// (exclusive). Idempotent for a constant now; call when the simulation
// reaches quiescence.
func (m *Module) FinishStats(now sim.Cycle) {
	m.settleBusy(now)
}

// Step advances one cycle, servicing at most one request when the
// controller is free.
func (m *Module) Step(now sim.Cycle) {
	m.settleBusy(now)
	if now < m.busyUntil {
		m.stats.Busy.Inc()
		return
	}
	if m.queue.Len() == 0 {
		return
	}
	r := m.queue.Pop()
	m.stats.Busy.Inc()
	switch r.Op {
	case OpRead:
		m.busyUntil = now + readTime
		m.read(r)
	case OpWrite:
		m.busyUntil = now + writeTime
		m.write(r)
	}
}

// read services a read request per Figure 2-1: present cells respond
// immediately; empty cells defer the request on the cell's deferred list.
func (m *Module) read(r Request) {
	c := m.cellAt(r.Addr)
	m.stats.Reads.Inc()
	switch c.state {
	case Present:
		m.stats.ImmediateReads.Inc()
		m.respond(Response{Addr: r.Addr, Value: c.value, ReplyTo: r.ReplyTo})
	default:
		c.state = Deferred
		c.waiters = append(c.waiters, r.ReplyTo)
		m.stats.DeferredReads.Inc()
		m.stats.Outstanding.Add(1)
	}
}

// write services a write: store the datum, set the presence bits, and
// satisfy every deferred reader. A write to a written cell is the
// single-assignment fault: it is recorded (see Fault) and dropped.
func (m *Module) write(r Request) {
	c := m.cellAt(r.Addr)
	m.stats.Writes.Inc()
	if c.state == Present {
		m.stats.Errors.Inc()
		if !m.faulted {
			m.faulted, m.fault = true, r.Addr
		}
		return
	}
	if len(c.waiters) > 0 {
		m.stats.DeferListLen.Observe(uint64(len(c.waiters)))
		for _, w := range c.waiters {
			m.respond(Response{Addr: r.Addr, Value: r.Value, ReplyTo: w})
		}
		m.stats.Outstanding.Add(-int64(len(c.waiters)))
		c.waiters = nil
	}
	c.state = Present
	c.value = r.Value
}

// State reports a cell's presence state (for tests and dumps).
func (m *Module) State(addr uint32) CellState {
	if c := m.peekCell(addr); c != nil {
		return c.state
	}
	return Empty
}

// Value reports a written cell's value, or nil.
func (m *Module) Value(addr uint32) interface{} {
	if c := m.peekCell(addr); c != nil {
		return c.value
	}
	return nil
}
