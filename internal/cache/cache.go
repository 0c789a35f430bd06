// Package cache implements processor caches and the cache-coherence
// machinery the paper argues cannot scale (Issue 1, the Censier-Feautrier
// coherence requirement): set-associative caches kept coherent by an MSI
// write-invalidate protocol over a serializing snoopy bus.
//
// The measurable costs the experiments plot are exactly the ones the paper
// names: invalidation traffic, bus serialization of writes to shared data,
// and the growth of both with the number of sharing processors.
package cache

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// lineState is the MSI coherence state of one cache line.
type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

// line is one cache line (block-granular; data tracked word-by-word in the
// shared backing store for verification).
type line struct {
	state lineState
	tag   uint32
	lru   uint64
}

// Cache geometry and timing, the same for both coherence schemes. Each
// private cache has sets × ways lines of blockWords words (addresses are
// word-granular). A bus transaction occupies the bus for busTime cycles,
// plus memTime when the data comes from memory rather than a cache; the
// directory charges memTime the same way. A hit takes hitTime.
const (
	sets       = 64
	ways       = 2
	blockWords = 4

	busTime sim.Cycle = 4
	memTime sim.Cycle = 10
	hitTime sim.Cycle = 1
)

// blockOf maps a word address to its block.
func blockOf(addr uint32) uint32 { return addr / blockWords }

// findLine returns the line of private cache c holding block, or nil.
func findLine(c []line, block uint32) *line {
	set := int(block%sets) * ways
	for w := set; w < set+ways; w++ {
		if l := &c[w]; l.state != invalid && l.tag == block {
			return l
		}
	}
	return nil
}

// victim picks the line of private cache c to fill with block: an invalid
// way of its set, else the least recently used.
func victim(c []line, block uint32) *line {
	set := int(block%sets) * ways
	var v *line
	for w := set; w < set+ways; w++ {
		l := &c[w]
		if l.state == invalid {
			return l
		}
		if v == nil || l.lru < v.lru {
			v = l
		}
	}
	return v
}

// Access is one outstanding processor request.
type Access struct {
	Addr  uint32
	Write bool
	Value int64 // stored value for writes
	Done  func(value int64)
}

// CacheStats counts per-processor cache events.
type CacheStats struct {
	Hits, Misses  metrics.Counter
	Upgrades      metrics.Counter // S→M transitions requiring the bus
	Invalidations metrics.Counter // lines invalidated by other processors
	Writebacks    metrics.Counter
}

// MissRate returns misses / (hits+misses).
func (s *CacheStats) MissRate() float64 {
	total := s.Hits.Value() + s.Misses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.Misses.Value()) / float64(total)
}

// System is a set of private caches over a single shared memory, kept
// coherent by a snoopy bus. Each processor has one outstanding access; the
// bus serializes all misses and upgrades.
type System struct {
	caches [][]line // [cpu][set*ways+way]
	stats  []CacheStats

	memory map[uint32]int64

	// per-cpu request queues (processors block on their head request)
	reqs [][]Access
	// per-cpu local completion time for hits
	hitDone []sim.Cycle

	// bus
	busBusyUntil sim.Cycle
	busRR        int
	busOwner     int // cpu whose transaction occupies the bus; -1 free
	busDoneAt    sim.Cycle
	lruTick      uint64

	// settled marks the cycle through which BusBusy ticks are accounted,
	// for lazy settlement of cycles an event-driven engine jumps over.
	settled sim.Cycle

	// BusTransactions counts serialized coherence/miss transactions;
	// BusBusy tracks bus utilization.
	BusTransactions metrics.Counter
	BusBusy         metrics.Utilization

	waker sim.Waker
}

// Attach receives the engine's waker (sim.Wakeable).
func (s *System) Attach(w sim.Waker) { s.waker = w }

// NewSystem returns a coherent cache system for n processors.
func NewSystem(n int) *System {
	s := &System{
		caches:   make([][]line, n),
		stats:    make([]CacheStats, n),
		memory:   map[uint32]int64{},
		reqs:     make([][]Access, n),
		hitDone:  make([]sim.Cycle, n),
		busOwner: -1,
	}
	for i := range s.caches {
		s.caches[i] = make([]line, sets*ways)
	}
	return s
}

// NumCPUs returns the processor count.
func (s *System) NumCPUs() int { return len(s.caches) }

// Stats returns processor i's cache statistics.
func (s *System) Stats(i int) *CacheStats { return &s.stats[i] }

// Request enqueues an access for processor cpu.
func (s *System) Request(cpu int, a Access) {
	s.reqs[cpu] = append(s.reqs[cpu], a)
	if s.waker != nil {
		if t := s.NextEvent(s.waker.Now()); t != sim.Never {
			s.waker.Wake(s, t)
		}
	}
}

// Pending reports whether any request is outstanding.
func (s *System) Pending() bool {
	if s.busOwner >= 0 {
		return true
	}
	for _, q := range s.reqs {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// Poke initializes memory directly.
func (s *System) Poke(addr uint32, v int64) { s.memory[addr] = v }

// Peek reads memory directly (ignores dirty cached copies; use only when
// quiescent after FlushAll or for unshared data).
func (s *System) Peek(addr uint32) int64 { return s.memory[addr] }

// Step advances one cycle.
func (s *System) Step(now sim.Cycle) {
	s.settleThrough(now)
	s.BusBusy.Tick(now < s.busBusyUntil)
	s.settled = now + 1
	// complete the bus transaction that finishes this cycle
	if s.busOwner >= 0 && now >= s.busDoneAt {
		cpu := s.busOwner
		s.busOwner = -1
		s.completeMiss(cpu, now)
	}
	// per-cpu: service hits locally, request the bus on misses
	for cpu := range s.reqs {
		if len(s.reqs[cpu]) == 0 || s.busOwner == cpu {
			continue
		}
		if now < s.hitDone[cpu] {
			continue // hit in progress
		}
		a := s.reqs[cpu][0]
		block := blockOf(a.Addr)
		l := findLine(s.caches[cpu], block)
		if l != nil && (!a.Write && l.state != invalid || a.Write && l.state == modified) {
			// pure cache hit: complete after hitTime without the bus
			s.stats[cpu].Hits.Inc()
			s.lruTick++
			l.lru = s.lruTick
			s.hitDone[cpu] = now + hitTime
			s.finish(cpu, a)
			continue
		}
		// needs the bus (miss or S→M upgrade): wait for arbitration
	}
	// bus arbitration: grant one waiting cpu per free bus
	if s.busOwner < 0 && now >= s.busBusyUntil {
		n := len(s.reqs)
		for k := 0; k < n; k++ {
			cpu := (s.busRR + k) % n
			if len(s.reqs[cpu]) == 0 || now < s.hitDone[cpu] {
				continue
			}
			a := s.reqs[cpu][0]
			block := blockOf(a.Addr)
			l := findLine(s.caches[cpu], block)
			if l != nil && (!a.Write || l.state == modified) {
				continue // a hit, handled above next cycle
			}
			// start transaction
			dur := busTime
			if l == nil || l.state == invalid {
				if !s.suppliedByPeer(cpu, block) {
					dur += memTime
				}
			}
			s.busOwner = cpu
			s.busDoneAt = now + dur
			s.busBusyUntil = s.busDoneAt
			s.busRR = (cpu + 1) % n
			s.BusTransactions.Inc()
			break
		}
	}
}

// NextEvent reports the earliest cycle the system can make progress: the
// in-flight bus transaction's completion, a hit in progress finishing, a
// pending hit (now), or a miss waiting for the bus to free.
func (s *System) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	if s.busOwner >= 0 {
		next = s.busDoneAt
	}
	for cpu := range s.reqs {
		if len(s.reqs[cpu]) == 0 || s.busOwner == cpu {
			continue
		}
		var t sim.Cycle
		if now < s.hitDone[cpu] {
			t = s.hitDone[cpu]
		} else {
			a := s.reqs[cpu][0]
			l := findLine(s.caches[cpu], blockOf(a.Addr))
			if l != nil && (!a.Write && l.state != invalid || a.Write && l.state == modified) {
				return now // hit ready to service
			}
			if s.busOwner >= 0 {
				t = s.busDoneAt // arbitration reopens at completion
			} else if s.busBusyUntil > now {
				t = s.busBusyUntil
			} else {
				return now // bus free: arbitration can grant this cycle
			}
		}
		if t < next {
			next = t
		}
	}
	if next < now {
		next = now
	}
	return next
}

// settleThrough accounts BusBusy ticks for unaccounted cycles before t.
// Exact during engine jumps: the bus state is frozen, so the busy cycles in
// the gap are those before busBusyUntil.
func (s *System) settleThrough(t sim.Cycle) {
	if t <= s.settled {
		return
	}
	var busy uint64
	if s.busBusyUntil > s.settled {
		end := s.busBusyUntil
		if end > t {
			end = t
		}
		busy = uint64(end - s.settled)
	}
	s.BusBusy.AddTicks(busy, uint64(t-s.settled))
	s.settled = t
}

// Settle accounts bus-utilization ticks for jumped-over cycles
// (sim.Settler).
func (s *System) Settle(through sim.Cycle) { s.settleThrough(through) }

// suppliedByPeer reports whether another cache holds the block (cache-to-
// cache transfer, no memory access needed).
func (s *System) suppliedByPeer(cpu int, block uint32) bool {
	for other := range s.caches {
		if other == cpu {
			continue
		}
		if findLine(s.caches[other], block) != nil {
			return true
		}
	}
	return false
}

// completeMiss applies the snoop effects and installs the line when the
// bus transaction for cpu's head request finishes.
func (s *System) completeMiss(cpu int, now sim.Cycle) {
	if len(s.reqs[cpu]) == 0 {
		return
	}
	a := s.reqs[cpu][0]
	block := blockOf(a.Addr)
	// snoop: writes invalidate every other copy; reads downgrade M to S
	for other := range s.caches {
		if other == cpu {
			continue
		}
		if ol := findLine(s.caches[other], block); ol != nil {
			if a.Write {
				if ol.state == modified {
					s.stats[other].Writebacks.Inc()
				}
				ol.state = invalid
				s.stats[other].Invalidations.Inc()
			} else if ol.state == modified {
				ol.state = shared
				s.stats[other].Writebacks.Inc()
			}
		}
	}
	l := findLine(s.caches[cpu], block)
	if l == nil {
		l = victim(s.caches[cpu], block)
		if l.state == modified {
			s.stats[cpu].Writebacks.Inc()
		}
		l.tag = block
		s.stats[cpu].Misses.Inc()
	} else {
		// S→M upgrade
		s.stats[cpu].Upgrades.Inc()
	}
	if a.Write {
		l.state = modified
	} else {
		l.state = shared
	}
	s.lruTick++
	l.lru = s.lruTick
	s.finish(cpu, a)
}

// finish commits the access's data effect and pops the request. Data
// commits at completion time, which the serializing bus orders globally —
// the coherence property under test.
func (s *System) finish(cpu int, a Access) {
	copy(s.reqs[cpu], s.reqs[cpu][1:])
	s.reqs[cpu] = s.reqs[cpu][:len(s.reqs[cpu])-1]
	if a.Write {
		s.memory[a.Addr] = a.Value
		if a.Done != nil {
			a.Done(0)
		}
		return
	}
	if a.Done != nil {
		a.Done(s.memory[a.Addr])
	}
}

// TotalInvalidations sums invalidations across caches.
func (s *System) TotalInvalidations() uint64 {
	var t uint64
	for i := range s.stats {
		t += s.stats[i].Invalidations.Value()
	}
	return t
}

// CheckInvariant verifies the MSI invariant: at most one modified copy of
// any block, and never modified alongside shared.
func (s *System) CheckInvariant() error {
	type holders struct{ m, sh int }
	h := map[uint32]*holders{}
	for cpu := range s.caches {
		for i := range s.caches[cpu] {
			l := &s.caches[cpu][i]
			if l.state == invalid {
				continue
			}
			e := h[l.tag]
			if e == nil {
				e = &holders{}
				h[l.tag] = e
			}
			if l.state == modified {
				e.m++
			} else {
				e.sh++
			}
		}
	}
	for block, e := range h {
		if e.m > 1 || (e.m == 1 && e.sh > 0) {
			return fmt.Errorf("cache: MSI violation on block %d: %d modified, %d shared", block, e.m, e.sh)
		}
	}
	return nil
}
