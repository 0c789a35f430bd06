package network

import "repro/internal/sim"

// Ideal is a contention-free fabric: every packet arrives exactly its
// latency in cycles after injection, regardless of load. It is the control
// case for experiments (infinite bandwidth, fixed latency) and the
// memory-latency knob for E1: raising the latency models a deeper machine.
//
// Because the latency is fixed, due times are nondecreasing in injection
// order, so in-flight packets live in one ring-buffer FIFO: Step pops the
// head while it is due, and the head's due time is the fabric's next
// event. This keeps the idle path O(1) with zero per-cycle allocation and
// preserves the seed's delivery order (injection order within a cycle).
type Ideal struct {
	clocked
	ports    int
	latency  sim.Cycle
	deliver  Delivery
	inflight sim.FIFO[timedPacket]
	now      sim.Cycle
	stats    *Stats
}

// timedPacket is a packet with its scheduled delivery cycle.
type timedPacket struct {
	due sim.Cycle
	p   *Packet
}

// NewIdeal returns an ideal network with the given port count and fixed
// latency in cycles (minimum 1).
func NewIdeal(ports int, latency sim.Cycle) *Ideal {
	if latency < 1 {
		latency = 1
	}
	return &Ideal{
		ports:   ports,
		latency: latency,
		stats:   NewStats(),
	}
}

// Ports returns the endpoint count.
func (n *Ideal) Ports() int { return n.ports }

// SetDelivery registers the destination callback.
func (n *Ideal) SetDelivery(d Delivery) { n.deliver = d }

// Send schedules delivery n.latency cycles after the current cycle. The
// ideal network never refuses a packet.
func (n *Ideal) Send(p *Packet) bool {
	n.now = n.clock(n, n.now)
	p.InjectedAt = n.now
	p.Hops = 1
	n.inflight.Push(timedPacket{due: n.now + n.latency, p: p})
	n.stats.Injected.Inc()
	n.rearm(n)
	return true
}

// Step delivers every packet due at or before now.
func (n *Ideal) Step(now sim.Cycle) {
	n.now = now
	for n.inflight.Len() > 0 && n.inflight.Peek().due <= now {
		tp := n.inflight.Pop()
		n.stats.delivered(tp.p, now)
		n.deliver(tp.p)
	}
}

// Pending reports packets in flight.
func (n *Ideal) Pending() int { return n.inflight.Len() }

// Idle reports whether nothing is in flight.
func (n *Ideal) Idle() bool { return n.inflight.Len() == 0 }

// NextEvent reports the head packet's delivery cycle, or sim.Never when
// idle. A due time in the past (possible only through misuse) clamps to
// now.
func (n *Ideal) NextEvent(now sim.Cycle) sim.Cycle {
	if n.inflight.Len() == 0 {
		return sim.Never
	}
	if due := n.inflight.Peek().due; due > now {
		return due
	}
	return now
}

// Stats returns traffic counters.
func (n *Ideal) Stats() *Stats { return n.stats }

var _ Network = (*Ideal)(nil)
