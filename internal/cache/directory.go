package cache

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// DirectorySystem is the scalable alternative to the snoopy bus: an MSI
// protocol kept coherent by a directory at memory that records, per block,
// which caches hold copies (Censier & Feautrier's own proposal was a
// directory scheme). There is no broadcast medium; the directory sends
// point-to-point invalidations, one per cycle, and each must be
// acknowledged — so the cost of a write to widely shared data grows with
// the number of sharers even though unshared traffic no longer fights over
// a bus. This is precisely the trade the paper says cannot be escaped:
// "all such schemes inevitably introduce overhead and/or decrease
// parallelism".
type DirectorySystem struct {
	// netLatency is the one-way point-to-point message latency.
	netLatency sim.Cycle

	caches [][]line
	stats  []CacheStats

	dir    map[uint32]*dirEntry
	memory map[uint32]int64

	reqs      [][]Access
	busy      []bool // cpu has an access in flight at the directory
	hitDone   []sim.Cycle
	dirQueue  []dirMsg
	dirBusyAt sim.Cycle
	// events holds in-flight point-to-point messages (requests travelling
	// to the directory, installs travelling back) ordered by (at, seq).
	events  []dirEvent
	evSeq   uint64
	lruTick uint64
	pending int
	// settled marks the cycle through which DirQueueLen samples are
	// accounted, for lazy settlement of jumped-over cycles.
	settled sim.Cycle

	// InvalidationMsgs counts point-to-point invalidations sent; DirOps
	// counts directory occupancy events.
	InvalidationMsgs metrics.Counter
	DirOps           metrics.Counter
	// DirQueueLen samples the directory's input queue.
	DirQueueLen metrics.Gauge

	waker sim.Waker
}

// Attach receives the engine's waker (sim.Wakeable).
func (s *DirectorySystem) Attach(w sim.Waker) { s.waker = w }

type dirEntry struct {
	sharers map[int]bool
	owner   int // cpu holding the block Modified, or -1
}

type dirMsg struct {
	cpu int
	a   Access
}

// dirEvent is one in-flight network message: a request on its way to the
// directory (install=false, lands by appending to dirQueue) or a reply on
// its way back to the requester (install=true, lands by installing the
// block and completing the access).
type dirEvent struct {
	at      sim.Cycle
	seq     uint64
	install bool
	cpu     int
	a       Access
}

// schedule inserts an event keeping events sorted by (at, seq). seq grows
// monotonically, so inserting after every event with at <= t preserves
// dispatch order.
func (s *DirectorySystem) schedule(t sim.Cycle, install bool, cpu int, a Access) {
	s.evSeq++
	ev := dirEvent{at: t, seq: s.evSeq, install: install, cpu: cpu, a: a}
	i := len(s.events)
	for i > 0 && s.events[i-1].at > t {
		i--
	}
	s.events = append(s.events, dirEvent{})
	copy(s.events[i+1:], s.events[i:])
	s.events[i] = ev
}

// runEvents delivers every message that has landed by now, in (at, seq)
// order.
func (s *DirectorySystem) runEvents(now sim.Cycle) {
	for len(s.events) > 0 && s.events[0].at <= now {
		ev := s.events[0]
		copy(s.events, s.events[1:])
		s.events = s.events[:len(s.events)-1]
		if ev.install {
			s.install(ev.cpu, ev.a)
		} else {
			s.dirQueue = append(s.dirQueue, dirMsg{cpu: ev.cpu, a: ev.a})
		}
	}
}

// eventsNext reports the earliest in-flight message arrival, or Never.
func (s *DirectorySystem) eventsNext() sim.Cycle {
	if len(s.events) == 0 {
		return sim.Never
	}
	return s.events[0].at
}

// NewDirectorySystem returns a directory-coherent system for n processors
// with the given point-to-point latency.
func NewDirectorySystem(n int, netLatency sim.Cycle) *DirectorySystem {
	if netLatency < 1 {
		netLatency = 1
	}
	s := &DirectorySystem{
		netLatency: netLatency,
		caches:     make([][]line, n),
		stats:      make([]CacheStats, n),
		dir:        map[uint32]*dirEntry{},
		memory:     map[uint32]int64{},
		reqs:       make([][]Access, n),
		busy:       make([]bool, n),
		hitDone:    make([]sim.Cycle, n),
	}
	for i := range s.caches {
		s.caches[i] = make([]line, sets*ways)
	}
	return s
}

// NumCPUs returns the processor count.
func (s *DirectorySystem) NumCPUs() int { return len(s.caches) }

// Stats returns processor i's cache statistics.
func (s *DirectorySystem) Stats(i int) *CacheStats { return &s.stats[i] }

// Request enqueues an access for processor cpu.
func (s *DirectorySystem) Request(cpu int, a Access) {
	s.reqs[cpu] = append(s.reqs[cpu], a)
	s.pending++
	if s.waker != nil {
		if t := s.NextEvent(s.waker.Now()); t != sim.Never {
			s.waker.Wake(s, t)
		}
	}
}

// Pending reports whether work remains.
func (s *DirectorySystem) Pending() bool { return s.pending > 0 }

// Poke initializes memory directly.
func (s *DirectorySystem) Poke(addr uint32, v int64) { s.memory[addr] = v }

// Peek reads memory directly (quiescent state only).
func (s *DirectorySystem) Peek(addr uint32) int64 { return s.memory[addr] }

func (s *DirectorySystem) entry(block uint32) *dirEntry {
	e := s.dir[block]
	if e == nil {
		e = &dirEntry{sharers: map[int]bool{}, owner: -1}
		s.dir[block] = e
	}
	return e
}

// Step advances one cycle.
func (s *DirectorySystem) Step(now sim.Cycle) {
	s.settleThrough(now)
	s.runEvents(now)
	s.DirQueueLen.Set(int64(len(s.dirQueue)))
	s.DirQueueLen.Sample()
	s.settled = now + 1

	// processors: hits complete locally, misses travel to the directory
	for cpu := range s.reqs {
		if len(s.reqs[cpu]) == 0 || s.busy[cpu] || now < s.hitDone[cpu] {
			continue
		}
		a := s.reqs[cpu][0]
		block := blockOf(a.Addr)
		l := findLine(s.caches[cpu], block)
		if l != nil && (!a.Write && l.state != invalid || a.Write && l.state == modified) {
			s.stats[cpu].Hits.Inc()
			s.lruTick++
			l.lru = s.lruTick
			s.hitDone[cpu] = now + hitTime
			s.finish(cpu, a)
			continue
		}
		// miss or upgrade: message to the directory
		s.busy[cpu] = true
		s.schedule(now+s.netLatency, false, cpu, a)
	}

	// directory: serve one message per cycle
	if now >= s.dirBusyAt && len(s.dirQueue) > 0 {
		m := s.dirQueue[0]
		copy(s.dirQueue, s.dirQueue[1:])
		s.dirQueue = s.dirQueue[:len(s.dirQueue)-1]
		s.DirOps.Inc()
		s.serve(now, m)
		// Refresh the gauge's frozen level: jumped-over cycles observe the
		// post-pop queue length, exactly as per-cycle stepping would.
		s.DirQueueLen.Set(int64(len(s.dirQueue)))
	}
}

// NextEvent reports the earliest cycle the system can make progress: an
// in-flight message landing, the directory freeing with work queued, or a
// processor whose head request becomes serviceable (a non-busy processor
// with a pending head always makes progress when stepped — it either
// finishes a hit or dispatches to the directory).
func (s *DirectorySystem) NextEvent(now sim.Cycle) sim.Cycle {
	next := s.eventsNext()
	if len(s.dirQueue) > 0 {
		t := s.dirBusyAt
		if t < now {
			t = now
		}
		if t < next {
			next = t
		}
	}
	for cpu := range s.reqs {
		if len(s.reqs[cpu]) == 0 || s.busy[cpu] {
			continue
		}
		t := s.hitDone[cpu]
		if t < now {
			t = now
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

// settleThrough samples the frozen directory-queue length once per
// unaccounted cycle before t — exact for jumped-over cycles, during which
// no message can arrive or be served.
func (s *DirectorySystem) settleThrough(t sim.Cycle) {
	if t > s.settled {
		s.DirQueueLen.SampleN(uint64(t - s.settled))
		s.settled = t
	}
}

// Settle accounts queue-length samples for jumped-over cycles
// (sim.Settler).
func (s *DirectorySystem) Settle(through sim.Cycle) { s.settleThrough(through) }

// serve processes one directory request and schedules the reply.
func (s *DirectorySystem) serve(now sim.Cycle, m dirMsg) {
	block := blockOf(m.a.Addr)
	e := s.entry(block)
	extra := sim.Cycle(0)

	if m.a.Write {
		// invalidate every other copy, one message per cycle, each needing
		// a round trip for its acknowledgement
		nInv := 0
		if e.owner >= 0 && e.owner != m.cpu {
			if ol := findLine(s.caches[e.owner], block); ol != nil {
				ol.state = invalid
				s.stats[e.owner].Invalidations.Inc()
				s.stats[e.owner].Writebacks.Inc()
			}
			s.InvalidationMsgs.Inc()
			nInv++
		}
		for sh := range e.sharers {
			if sh == m.cpu {
				continue
			}
			if ol := findLine(s.caches[sh], block); ol != nil {
				ol.state = invalid
				s.stats[sh].Invalidations.Inc()
			}
			s.InvalidationMsgs.Inc()
			nInv++
		}
		// serialization (one invalidation per cycle) plus one ack round trip
		if nInv > 0 {
			extra = sim.Cycle(nInv) + 2*s.netLatency
		}
		hadCopy := e.sharers[m.cpu] || e.owner == m.cpu
		if !hadCopy {
			extra += memTime
		}
		e.sharers = map[int]bool{}
		e.owner = m.cpu
	} else {
		if e.owner >= 0 && e.owner != m.cpu {
			// fetch from the owner: forward + reply, plus downgrade
			if ol := findLine(s.caches[e.owner], block); ol != nil {
				ol.state = shared
				s.stats[e.owner].Writebacks.Inc()
			}
			e.sharers[e.owner] = true
			e.owner = -1
			extra = 2 * s.netLatency
		} else if e.owner != m.cpu {
			extra = memTime
		}
		e.sharers[m.cpu] = true
	}
	// The directory serves the next request only after this one's install
	// lands: full serialization in place of transient protocol states.
	s.dirBusyAt = now + 1 + extra + s.netLatency

	s.schedule(now+extra+s.netLatency, true, m.cpu, m.a)
}

// install places the block in the requester's cache and completes.
func (s *DirectorySystem) install(cpu int, a Access) {
	block := blockOf(a.Addr)
	l := findLine(s.caches[cpu], block)
	if l == nil {
		l = victim(s.caches[cpu], block)
		if l.state == modified {
			s.stats[cpu].Writebacks.Inc()
			// eviction: remove ourselves from the directory for the old block
			old := s.entry(l.tag)
			if old.owner == cpu {
				old.owner = -1
			}
			delete(old.sharers, cpu)
		} else if l.state == shared {
			delete(s.entry(l.tag).sharers, cpu)
		}
		l.tag = block
		s.stats[cpu].Misses.Inc()
	} else {
		s.stats[cpu].Upgrades.Inc()
	}
	if a.Write {
		l.state = modified
	} else {
		l.state = shared
	}
	s.lruTick++
	l.lru = s.lruTick
	s.busy[cpu] = false
	s.finish(cpu, a)
}

// finish commits the data effect and pops the request.
func (s *DirectorySystem) finish(cpu int, a Access) {
	copy(s.reqs[cpu], s.reqs[cpu][1:])
	s.reqs[cpu] = s.reqs[cpu][:len(s.reqs[cpu])-1]
	s.pending--
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

// CheckInvariant verifies the MSI single-writer invariant plus directory
// consistency: the directory's owner/sharer records match cache states.
func (s *DirectorySystem) CheckInvariant() error {
	for cpu := range s.caches {
		for i := range s.caches[cpu] {
			l := &s.caches[cpu][i]
			if l.state == invalid {
				continue
			}
			e := s.dir[l.tag]
			if e == nil {
				return fmt.Errorf("cache: cpu %d holds block %d unknown to the directory", cpu, l.tag)
			}
			switch l.state {
			case modified:
				if e.owner != cpu {
					return fmt.Errorf("cache: cpu %d modified block %d but directory owner is %d", cpu, l.tag, e.owner)
				}
			case shared:
				if !e.sharers[cpu] && e.owner != cpu {
					return fmt.Errorf("cache: cpu %d shares block %d without a directory record", cpu, l.tag)
				}
			}
		}
	}
	for block, e := range s.dir {
		if e.owner >= 0 {
			for sh := range e.sharers {
				if sh != e.owner {
					return fmt.Errorf("cache: block %d has owner %d and sharer %d simultaneously", block, e.owner, sh)
				}
			}
		}
	}
	return nil
}
