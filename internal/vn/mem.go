package vn

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// backing is the shared word-array with atomic read-modify-write ops.
type backing struct {
	words map[uint32]Word
}

func newBacking() *backing { return &backing{words: map[uint32]Word{}} }

func (b *backing) apply(r MemRequest) Word {
	switch r.Op {
	case MemRead:
		return b.words[r.Addr]
	case MemWrite:
		b.words[r.Addr] = r.Value
		return 0
	case MemFetchAdd:
		old := b.words[r.Addr]
		b.words[r.Addr] = old + r.Value
		return old
	case MemTestSet:
		old := b.words[r.Addr]
		b.words[r.Addr] = 1
		return old
	default:
		return 0
	}
}

// dueReq is a request with its completion cycle. Because the latency is
// fixed and issue times are nondecreasing, completion times are
// nondecreasing too, so a FIFO keeps them sorted for free.
type dueReq struct {
	at sim.Cycle
	r  MemRequest
}

// LatencyMemory is an infinite-bandwidth memory with a fixed round-trip
// latency: the E1/E2 knob for "how far away is memory in a machine of this
// size". Step must be called once per cycle.
type LatencyMemory struct {
	store   *backing
	latency sim.Cycle
	now     sim.Cycle
	due     sim.FIFO[dueReq]
	pending int
	waker   sim.Waker
}

// Attach receives the engine's waker (sim.Wakeable).
func (m *LatencyMemory) Attach(w sim.Waker) { m.waker = w }

// NewLatencyMemory returns a fixed-latency memory (minimum 1 cycle).
func NewLatencyMemory(latency sim.Cycle) *LatencyMemory {
	if latency < 1 {
		latency = 1
	}
	return &LatencyMemory{store: newBacking(), latency: latency}
}

// Request issues r; its Done callback fires after the fixed latency.
func (m *LatencyMemory) Request(r MemRequest) {
	if m.waker != nil {
		m.now = m.waker.SlotNow(m)
	}
	m.due.Push(dueReq{at: m.now + m.latency, r: r})
	m.pending++
	if m.waker != nil {
		m.waker.Wake(m, m.due.Peek().at)
	}
}

// Step completes requests due this cycle. Operations apply at completion
// time, in issue order, which serializes read-modify-writes.
func (m *LatencyMemory) Step(now sim.Cycle) {
	m.now = now
	for m.due.Len() > 0 && m.due.Peek().at <= now {
		d := m.due.Pop()
		v := m.store.apply(d.r)
		m.pending--
		if d.r.Done != nil {
			d.r.Done(v)
		}
	}
}

// NextEvent reports the earliest completion, or Never when idle.
func (m *LatencyMemory) NextEvent(now sim.Cycle) sim.Cycle {
	if m.due.Len() == 0 {
		return sim.Never
	}
	if t := m.due.Peek().at; t > now {
		return t
	}
	return now
}

// Pending reports outstanding requests.
func (m *LatencyMemory) Pending() int { return m.pending }

// Peek reads a word directly (test inspection).
func (m *LatencyMemory) Peek(addr uint32) Word { return m.store.words[addr] }

// BankedMemory is a memory module with finite bandwidth: one request
// completes per ServiceTime cycles, plus a fixed access latency. It models
// a shared memory bank where contention queues requests — the serialization
// that makes hot spots expensive.
type BankedMemory struct {
	store       *backing
	latency     sim.Cycle
	serviceTime sim.Cycle
	queue       sim.FIFO[MemRequest]
	busyUntil   sim.Cycle
	due         sim.FIFO[dueCompleted]
	pending     int
	settled     sim.Cycle // queue-length samples accounted through here
	waker       sim.Waker

	// QueueLen observes the waiting-queue length each cycle.
	QueueLen metrics.Gauge
	// Served counts completed requests.
	Served metrics.Counter
}

type completed struct {
	r MemRequest
	v Word
}

// dueCompleted is a serviced request awaiting response delivery. Service
// times are nondecreasing (one per Step), so a FIFO keeps completions
// sorted by due cycle.
type dueCompleted struct {
	at sim.Cycle
	c  completed
}

// NewBankedMemory returns a module that accepts one request per
// serviceTime cycles and responds latency cycles after service.
func NewBankedMemory(latency, serviceTime sim.Cycle) *BankedMemory {
	if latency < 1 {
		latency = 1
	}
	if serviceTime < 1 {
		serviceTime = 1
	}
	return &BankedMemory{store: newBacking(), latency: latency, serviceTime: serviceTime}
}

// Attach receives the engine's waker (sim.Wakeable).
func (m *BankedMemory) Attach(w sim.Waker) { m.waker = w }

// Request queues r at the bank. The gauge level is refreshed immediately so
// that cycles an event-driven engine jumps over settle at the post-arrival
// queue length, exactly as per-cycle sampling would have observed.
func (m *BankedMemory) Request(r MemRequest) {
	if m.waker != nil {
		// Wake before the push below: Engine.Wake settles jumped-over gauge
		// samples at the pre-arrival level. The wake cycle is the bank's
		// exact post-arrival next event — the earlier of the next response
		// delivery and the end of the current service (the queue is about
		// to be non-empty).
		next := m.busyUntil
		if m.due.Len() > 0 && m.due.Peek().at < next {
			next = m.due.Peek().at
		}
		m.waker.Wake(m, next)
	}
	m.queue.Push(r)
	m.pending++
	m.QueueLen.Set(int64(m.queue.Len()))
}

// Step services at most one queued request and delivers due responses.
func (m *BankedMemory) Step(now sim.Cycle) {
	m.settleThrough(now)
	for m.due.Len() > 0 && m.due.Peek().at <= now {
		d := m.due.Pop()
		m.pending--
		m.Served.Inc()
		if d.c.r.Done != nil {
			d.c.r.Done(d.c.v)
		}
	}
	m.QueueLen.Set(int64(m.queue.Len()))
	m.QueueLen.Sample()
	m.settled = now + 1
	if now < m.busyUntil || m.queue.Len() == 0 {
		return
	}
	r := m.queue.Pop()
	m.busyUntil = now + m.serviceTime
	v := m.store.apply(r) // applied at service time: atomic and serialized
	m.due.Push(dueCompleted{at: now + m.latency, c: completed{r: r, v: v}})
	// Refresh the gauge's frozen level: jumped-over cycles settle at the
	// post-pop queue length, exactly as per-cycle sampling would observe.
	m.QueueLen.Set(int64(m.queue.Len()))
}

// NextEvent reports the earliest cycle the bank can act: the next response
// delivery, or the end of the current service if work is queued.
func (m *BankedMemory) NextEvent(now sim.Cycle) sim.Cycle {
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

// settleThrough samples the frozen queue length once per unaccounted cycle
// before t — exact for cycles an engine jumped over, because no request can
// arrive or complete while every component is idle.
func (m *BankedMemory) settleThrough(t sim.Cycle) {
	if t > m.settled {
		m.QueueLen.SampleN(uint64(t - m.settled))
		m.settled = t
	}
}

// Settle accounts queue-length samples for jumped-over cycles (sim.Settler).
func (m *BankedMemory) Settle(through sim.Cycle) { m.settleThrough(through) }

// Pending reports queued plus in-flight requests.
func (m *BankedMemory) Pending() int { return m.pending }

// Poke writes a word directly (test setup).
func (m *BankedMemory) Poke(addr uint32, v Word) { m.store.words[addr] = v }

// Peek reads a word directly (test inspection).
func (m *BankedMemory) Peek(addr uint32) Word { return m.store.words[addr] }

var (
	_ MemPort = (*LatencyMemory)(nil)
	_ MemPort = (*BankedMemory)(nil)
)
