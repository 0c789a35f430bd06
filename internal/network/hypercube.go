package network

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Hypercube is a d-dimensional binary cube of packet switches, one per
// processing element, routed e-cube (dimension order): a packet crosses
// the lowest dimension in which its current node and its destination
// differ. Each link carries one packet per cycle in each direction; each
// node has an injection queue and one input buffer per dimension.
//
// The Section 3 emulation facility's table routing, link faults and
// partitions are internal/emulator's, not this fabric's.
type Hypercube struct {
	clocked
	dim     int
	n       int
	deliver Delivery

	// in[node][port]: port 0 = injection, 1+k = input from dimension-k link
	in [][]*queue
	rr []int

	pending int
	now     sim.Cycle
	stats   *Stats
}

// NewHypercube returns a 2^dim-node cube with per-buffer capacity queueCap.
func NewHypercube(dim int, queueCap int) *Hypercube {
	n := 1 << dim
	h := &Hypercube{dim: dim, n: n, stats: NewStats()}
	h.in = make([][]*queue, n)
	h.rr = make([]int, n)
	for i := 0; i < n; i++ {
		qs := make([]*queue, dim+1)
		for j := range qs {
			qs[j] = newQueue(queueCap)
		}
		h.in[i] = qs
	}
	return h
}

// Ports returns 2^dim.
func (h *Hypercube) Ports() int { return h.n }

// SetDelivery registers the destination callback.
func (h *Hypercube) SetDelivery(d Delivery) { h.deliver = d }

// Send enqueues at the source's injection buffer.
func (h *Hypercube) Send(p *Packet) bool {
	if p.Src < 0 || p.Src >= h.n || p.Dst < 0 || p.Dst >= h.n {
		panic(fmt.Sprintf("network: hypercube packet with bad endpoints %s", p))
	}
	h.now = h.clock(h, h.now)
	if !h.in[p.Src][0].push(p) {
		h.stats.Refused.Inc()
		return false
	}
	p.InjectedAt = h.now
	p.moved = ^sim.Cycle(0)
	h.pending++
	h.stats.Injected.Inc()
	h.rearm(h)
	return true
}

// Step advances one cycle: each node ejects local packets and forwards at
// most one packet per outgoing link.
func (h *Hypercube) Step(now sim.Cycle) {
	h.now = now
	for node := 0; node < h.n; node++ {
		var usedDim [32]bool
		inputs := h.in[node]
		start := h.rr[node]
		nports := h.dim + 1
		for k := 0; k < nports; k++ {
			port := (start + k) % nports
			q := inputs[port]
			pkt := q.head()
			if pkt == nil || pkt.moved == now {
				continue
			}
			if pkt.Dst == node {
				q.pop()
				h.pending--
				h.stats.delivered(pkt, now)
				h.deliver(pkt)
				continue
			}
			d := bits.TrailingZeros(uint(node ^ pkt.Dst)) // e-cube: lowest differing dimension
			if usedDim[d] {
				continue
			}
			nb := node ^ (1 << d)
			if h.in[nb][1+d].full() {
				continue
			}
			q.pop()
			pkt.Hops++
			pkt.moved = now
			h.in[nb][1+d].push(pkt)
			usedDim[d] = true
		}
		h.rr[node] = (start + 1) % nports
	}
}

// Pending reports packets queued or in transit.
func (h *Hypercube) Pending() int { return h.pending }

// Idle reports whether no packets are queued or in flight.
func (h *Hypercube) Idle() bool { return h.pending == 0 }

// NextEvent: a switched cube with traffic must route every cycle.
func (h *Hypercube) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(h.pending, now) }

// Stats returns traffic counters.
func (h *Hypercube) Stats() *Stats { return h.stats }

// HammingDistance returns the minimum hop count between two nodes: the
// hops an e-cube route takes.
func HammingDistance(a, b int) int {
	d := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		d++
	}
	return d
}

var _ Network = (*Hypercube)(nil)
