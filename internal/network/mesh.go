package network

import (
	"fmt"

	"repro/internal/sim"
)

// Mesh is a 2-D mesh with XY (dimension-order) routing, the Illiac IV /
// Connection Machine grid. Each node has an injection queue and one input
// buffer per incoming link; each link moves one packet per cycle. Optional
// wraparound turns it into a torus (Illiac IV was an 8×8 end-around grid).
type Mesh struct {
	clocked
	w, h    int
	torus   bool
	deliver Delivery

	// in[node][port]: port 0 = injection, 1..4 = -x,+x,-y,+y inputs
	in      [][]*queue
	rr      []int
	pending int
	now     sim.Cycle
	stats   *Stats
}

const (
	meshInject = 0
	meshWest   = 1 // arrived travelling +x (came from west)
	meshEast   = 2
	meshSouth  = 3
	meshNorth  = 4
	meshPorts  = 5
)

// NewMesh returns a w×h mesh (torus when wrap is true) with the given
// per-buffer capacity.
func NewMesh(w, h int, wrap bool, queueCap int) *Mesh {
	m := &Mesh{w: w, h: h, torus: wrap, stats: NewStats()}
	n := w * h
	m.in = make([][]*queue, n)
	m.rr = make([]int, n)
	for i := range m.in {
		qs := make([]*queue, meshPorts)
		for j := range qs {
			qs[j] = newQueue(queueCap)
		}
		m.in[i] = qs
	}
	return m
}

// Ports returns w*h.
func (m *Mesh) Ports() int { return m.w * m.h }

// SetDelivery registers the destination callback.
func (m *Mesh) SetDelivery(d Delivery) { m.deliver = d }

// Coord converts a node index to (x, y).
func (m *Mesh) Coord(node int) (x, y int) { return node % m.w, node / m.w }

// Node converts (x, y) to a node index.
func (m *Mesh) Node(x, y int) int { return y*m.w + x }

// Send enqueues at the source's injection buffer.
func (m *Mesh) Send(p *Packet) bool {
	if p.Src < 0 || p.Src >= m.Ports() || p.Dst < 0 || p.Dst >= m.Ports() {
		panic(fmt.Sprintf("network: mesh packet with bad endpoints %s", p))
	}
	m.now = m.clock(m, m.now)
	if !m.in[p.Src][meshInject].push(p) {
		m.stats.Refused.Inc()
		return false
	}
	p.InjectedAt = m.now
	p.moved = ^sim.Cycle(0) // sentinel: not yet hopped
	m.pending++
	m.stats.Injected.Inc()
	m.rearm(m)
	return true
}

// step direction deltas; returns (next node, arrival port) for one hop of
// XY routing from cur toward dst.
func (m *Mesh) nextHop(cur, dst int) (next int, arrivalPort int) {
	cx, cy := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch {
	case cx != dx:
		step := 1
		if dx < cx {
			step = -1
		}
		if m.torus {
			// choose the shorter wrap direction
			fwd := (dx - cx + m.w) % m.w
			if fwd <= m.w-fwd {
				step = 1
			} else {
				step = -1
			}
		}
		nx := (cx + step + m.w) % m.w
		if !m.torus && (cx+step < 0 || cx+step >= m.w) {
			nx = cx // cannot happen with XY routing on a mesh
		}
		if step == 1 {
			return m.Node(nx, cy), meshWest
		}
		return m.Node(nx, cy), meshEast
	case cy != dy:
		step := 1
		if dy < cy {
			step = -1
		}
		if m.torus {
			fwd := (dy - cy + m.h) % m.h
			if fwd <= m.h-fwd {
				step = 1
			} else {
				step = -1
			}
		}
		ny := (cy + step + m.h) % m.h
		if step == 1 {
			return m.Node(cx, ny), meshSouth
		}
		return m.Node(cx, ny), meshNorth
	default:
		return cur, -1
	}
}

// Step advances one cycle: every node ejects local packets and forwards at
// most one packet per outgoing link.
func (m *Mesh) Step(now sim.Cycle) {
	m.now = now
	n := m.Ports()
	for node := 0; node < n; node++ {
		usedLink := map[int]bool{} // arrival port at neighbor, keyed by next*8+port
		inputs := m.in[node]
		start := m.rr[node]
		for k := 0; k < meshPorts; k++ {
			port := (start + k) % meshPorts
			q := inputs[port]
			h := q.head()
			if h == nil || h.moved == now {
				continue
			}
			if h.Dst == node {
				q.pop()
				m.pending--
				m.stats.delivered(h, now)
				m.deliver(h)
				continue
			}
			next, arrival := m.nextHop(node, h.Dst)
			key := next*8 + arrival
			if usedLink[key] {
				continue // link already carried a packet this cycle
			}
			target := m.in[next][arrival]
			if target.full() {
				continue // backpressure
			}
			// Bubble flow control: a packet entering a ring (injection or
			// a dimension turn) must leave a free slot behind, so a
			// wrap-around ring can never fill completely and deadlock.
			// Packets continuing along the same ring (same arrival
			// direction) need only one slot.
			if m.torus && port != arrival && target.len() >= target.cap-1 {
				continue
			}
			q.pop()
			h.Hops++
			h.moved = now
			m.in[next][arrival].push(h)
			usedLink[key] = true
		}
		m.rr[node] = (start + 1) % meshPorts
	}
}

// Pending reports packets queued or in transit.
func (m *Mesh) Pending() int { return m.pending }

// Idle reports whether no packets are queued or in flight.
func (m *Mesh) Idle() bool { return m.pending == 0 }

// NextEvent: a mesh with traffic must route every cycle.
func (m *Mesh) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(m.pending, now) }

// Stats returns traffic counters.
func (m *Mesh) Stats() *Stats { return m.stats }

// DistanceXY returns the hop distance between two nodes under the current
// topology (mesh or torus).
func (m *Mesh) DistanceXY(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	dx := abs(ax - bx)
	dy := abs(ay - by)
	if m.torus {
		if w := m.w - dx; w < dx {
			dx = w
		}
		if h := m.h - dy; h < dy {
			dy = h
		}
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

var _ Network = (*Mesh)(nil)
