package network

import (
	"math/bits"

	"repro/internal/sim"
)

// Crossbar models the C.mmp-style n×n crossbar switch: every input has an
// injection queue, every output accepts one packet per cycle, and transit
// takes SwitchDelay cycles once an input wins arbitration. Contention
// appears only when two inputs address the same output in the same cycle.
//
// The paper's point about C.mmp is economic rather than architectural: a
// crossbar's cost grows at least quadratically. Cost reports the standard
// crosspoint count so experiments can plot it.
//
// Arbitration is cached rather than rescanned, so the host pays for the
// traffic a cycle carries, not for the crossbar's size. reqs[out] is a
// bitmask over inputs whose head-of-line packet addresses out, and wanted
// is a bitmask over outputs with at least one such input; both are
// maintained on every queue push/pop. A cycle walks only wanted's set
// bits, and each output's round-robin grant is a find-first-set over its
// request words: O(words) per requested output plus one pass over the
// output mask, so a spin lock hammering one bank of a 128-port crossbar
// costs a few mask probes a cycle, not 128 output scans. Grants, their
// order and the round-robin pointers are those of a loop visiting every
// output in ascending order.
type Crossbar struct {
	clocked
	ports       int
	switchDelay sim.Cycle
	deliver     Delivery

	in      []*queue
	rr      []int      // per-output round-robin arbitration pointer
	reqs    [][]uint64 // reqs[out]: bitmask of inputs whose head wants out
	wanted  []uint64   // bitmask of outputs whose reqs mask is non-empty
	headDst []int      // cached head-of-line destination per input, -1 if empty

	// inflight holds granted packets until transit completes. switchDelay
	// is constant, so due cycles are nondecreasing and a FIFO keeps them
	// sorted for free.
	inflight sim.FIFO[flight]
	pending  int
	now      sim.Cycle
	stats    *Stats
}

type flight struct {
	at sim.Cycle
	p  *Packet
}

// NewCrossbar returns an n-port crossbar. switchDelay is the input-to-
// output transit time in cycles (minimum 1); queueCap bounds each input's
// injection queue.
func NewCrossbar(ports int, switchDelay sim.Cycle, queueCap int) *Crossbar {
	if switchDelay < 1 {
		switchDelay = 1
	}
	c := &Crossbar{
		ports:       ports,
		switchDelay: switchDelay,
		in:          make([]*queue, ports),
		rr:          make([]int, ports),
		reqs:        make([][]uint64, ports),
		wanted:      make([]uint64, (ports+63)/64),
		headDst:     make([]int, ports),
		stats:       NewStats(),
	}
	words := len(c.wanted)
	for i := range c.in {
		c.in[i] = newQueue(queueCap)
		c.reqs[i] = make([]uint64, words)
		c.headDst[i] = -1
	}
	return c
}

// Cost returns the crosspoint count of an n-port crossbar, the quadratic
// cost growth the paper calls out for C.mmp.
func CrossbarCost(ports int) int { return ports * ports }

// Ports returns the endpoint count.
func (c *Crossbar) Ports() int { return c.ports }

// SetDelivery registers the destination callback.
func (c *Crossbar) SetDelivery(d Delivery) { c.deliver = d }

// syncHead refreshes input i's cached head destination and the requester
// bitmasks after a push or pop changed the head of its queue.
func (c *Crossbar) syncHead(i int) {
	d := -1
	if h := c.in[i].head(); h != nil {
		d = h.Dst
	}
	if d == c.headDst[i] {
		return
	}
	if o := c.headDst[i]; o >= 0 {
		c.reqs[o][i>>6] &^= 1 << (uint(i) & 63)
		if isEmpty(c.reqs[o]) {
			c.wanted[o>>6] &^= 1 << (uint(o) & 63)
		}
	}
	if d >= 0 {
		c.reqs[d][i>>6] |= 1 << (uint(i) & 63)
		c.wanted[d>>6] |= 1 << (uint(d) & 63)
	}
	c.headDst[i] = d
}

func isEmpty(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// nextSet returns the lowest set bit at or after start, or -1 when there
// is none. Bits at or above ports are never set.
func nextSet(mask []uint64, start int) int {
	w := start >> 6
	if w >= len(mask) {
		return -1
	}
	if v := mask[w] & (^uint64(0) << (uint(start) & 63)); v != 0 {
		return w<<6 + bits.TrailingZeros64(v)
	}
	for i := w + 1; i < len(mask); i++ {
		if mask[i] != 0 {
			return i<<6 + bits.TrailingZeros64(mask[i])
		}
	}
	return -1
}

// firstSetFrom returns the lowest set bit at or cyclically after start, or
// -1 when the mask is empty.
func firstSetFrom(mask []uint64, start int) int {
	if b := nextSet(mask, start); b >= 0 {
		return b
	}
	return nextSet(mask, 0)
}

// Send enqueues at the source's input queue.
func (c *Crossbar) Send(p *Packet) bool {
	c.now = c.clock(c, c.now)
	if !c.in[p.Src].push(p) {
		c.stats.Refused.Inc()
		return false
	}
	c.syncHead(p.Src)
	p.InjectedAt = c.now
	c.pending++
	c.stats.Injected.Inc()
	c.rearm(c)
	return true
}

// Step delivers packets whose transit completes this cycle, then
// arbitrates each requested output among its requesting inputs
// (round-robin).
func (c *Crossbar) Step(now sim.Cycle) {
	c.now = now
	for c.inflight.Len() > 0 && c.inflight.Peek().at <= now {
		p := c.inflight.Pop().p
		c.pending--
		c.stats.delivered(p, now)
		c.deliver(p)
	}

	// Visit requested outputs in ascending order and grant each the first
	// requesting input at or cyclically after its round-robin pointer.
	// The output mask is re-read after every grant: a pop can expose a
	// head that wants a higher output, which this cycle still serves.
	for out := nextSet(c.wanted, 0); out >= 0; out = nextSet(c.wanted, out+1) {
		granted := firstSetFrom(c.reqs[out], c.rr[out])
		p := c.in[granted].pop()
		c.syncHead(granted)
		p.Hops = 1
		c.inflight.Push(flight{at: now + c.switchDelay, p: p})
		c.rr[out] = (granted + 1) % c.ports
	}
}

// Pending reports packets queued or in transit.
func (c *Crossbar) Pending() int { return c.pending }

// Idle reports whether no packets are queued or in flight.
func (c *Crossbar) Idle() bool { return c.pending == 0 }

// NextEvent: a crossbar with traffic must arbitrate every cycle.
func (c *Crossbar) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(c.pending, now) }

// Stats returns traffic counters.
func (c *Crossbar) Stats() *Stats { return c.stats }

var _ Network = (*Crossbar)(nil)
