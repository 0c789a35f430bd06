package network

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Combinable is implemented by request payloads that an omega switch may
// merge when two of them meet in a switch queue, the NYU Ultracomputer's
// FETCH-AND-ADD combining (Section 1.2.3).
//
// Combine merges the receiver (the packet already queued) with other (the
// arriving packet) and returns the merged forward payload plus a splitter.
// When the merged request's reply comes back through the switch, the
// splitter is applied to the reply payload to produce the two original
// requesters' replies: first for the queued packet, second for the arrival.
type Combinable interface {
	// CombineKey returns the key (e.g. the memory address) two payloads
	// must share to combine; ok=false opts out entirely.
	CombineKey() (key uint64, ok bool)
	// Combine merges with other.
	Combine(other Combinable) (merged Combinable, split Splitter)
}

// Splitter decombines a reply payload into the two original replies. It is
// an interface over a plain data value — not a closure — so pending
// decombine records can be serialized into checkpoints; implementations
// must round-trip through their machine's PayloadCodec.
type Splitter interface {
	Split(reply interface{}) (first, second interface{})
}

// Omega is a log2(n)-stage omega network of 2×2 switches connecting n
// processor ports to n memory ports, with optional request combining.
// Requests flow forward (processor to memory); replies retrace the
// request's path backward, decombining where requests were merged. Every
// link (forward and reverse) carries one packet per cycle.
type Omega struct {
	clocked
	k, n      int
	combining bool

	deliverFwd Delivery // at the memory side
	deliverRpl Delivery // back at the processor side

	// free recycles packets whose network life has ended: retired request
	// packets (consumed by Reply or a decombine) and released replies.
	// Reply packets are always built from it, so steady-state traffic
	// allocates nothing once the pool is primed.
	free []*Packet

	// fwd[s][sw][port] and rev[s][sw][port] are switch output queues.
	fwd, rev  [][][2]*queue
	decombine []map[uint64]*splitRecord // per stage: pending decombines
	deferred  []*Packet                 // decombined replies awaiting queue space
	nextID    uint64
	pending   int
	now       sim.Cycle
	stats     *Stats

	// CombineOps counts additions performed inside switches, the hardware
	// cost the paper flags ("as many as log2 n additions" per reference).
	CombineOps metrics.Counter
	// DecombineTable tracks the per-network count of waiting decombine
	// entries (switch state the hardware must hold).
	DecombineTable metrics.Gauge
}

type splitRecord struct {
	split   Splitter
	partner *Packet
}

// NewOmega returns an omega network with 2^k ports per side. queueCap
// bounds each switch output queue; combining enables switch-level request
// merging.
func NewOmega(k int, queueCap int, combining bool) *Omega {
	n := 1 << k
	o := &Omega{k: k, n: n, combining: combining, stats: NewStats()}
	o.fwd = make([][][2]*queue, k)
	o.rev = make([][][2]*queue, k)
	o.decombine = make([]map[uint64]*splitRecord, k)
	for s := 0; s < k; s++ {
		o.fwd[s] = make([][2]*queue, n/2)
		o.rev[s] = make([][2]*queue, n/2)
		o.decombine[s] = map[uint64]*splitRecord{}
		for sw := 0; sw < n/2; sw++ {
			o.fwd[s][sw] = [2]*queue{newQueue(queueCap), newQueue(queueCap)}
			o.rev[s][sw] = [2]*queue{newQueue(queueCap), newQueue(queueCap)}
		}
	}
	return o
}

// Ports returns the per-side port count.
func (o *Omega) Ports() int { return o.n }

// SetDelivery registers the memory-side (forward) callback; for the
// generic Network interface this is where requests arrive.
func (o *Omega) SetDelivery(d Delivery) { o.deliverFwd = d }

// SetReplyDelivery registers the processor-side callback for replies.
func (o *Omega) SetReplyDelivery(d Delivery) { o.deliverRpl = d }

// acquire returns a zeroed packet, recycled when possible.
func (o *Omega) acquire() *Packet {
	if n := len(o.free); n > 0 {
		p := o.free[n-1]
		o.free = o.free[:n-1]
		p.Reset()
		return p
	}
	return &Packet{}
}

// AcquirePacket returns a recycled packet for injection via Send. Using it
// is optional; Send accepts any packet.
func (o *Omega) AcquirePacket() *Packet { return o.acquire() }

// ReleasePacket returns a delivered packet to the free list. Ownership
// rules: Send transfers the request packet to the network; the forward
// delivery callback owns it until it passes it back to Reply, which
// retires it into the pool on success. The reply delivery callback owns
// the reply packet it receives and should release it here once consumed.
// After releasing, the caller must drop every reference.
func (o *Omega) ReleasePacket(p *Packet) { o.free = append(o.free, p) }

// shuffle applies the perfect shuffle to a wire index.
func (o *Omega) shuffle(w int) int {
	return ((w << 1) | (w >> (o.k - 1))) & (o.n - 1)
}

// Send injects a request at processor port p.Src toward memory port p.Dst.
func (o *Omega) Send(p *Packet) bool {
	if p.Src < 0 || p.Src >= o.n || p.Dst < 0 || p.Dst >= o.n {
		panic(fmt.Sprintf("network: omega packet with bad endpoints %s", p))
	}
	o.now = o.clock(o, o.now)
	o.nextID++
	p.id = o.nextID
	p.path = p.path[:0]
	wire := o.shuffle(p.Src)
	sw, in := wire/2, wire&1
	if !o.routeInto(0, sw, in, p) {
		o.stats.Refused.Inc()
		return false
	}
	p.InjectedAt = o.now
	o.stats.Injected.Inc()
	o.rearm(o)
	return true
}

// routeInto places p at the input of switch (stage, sw), choosing the
// output by the destination bit, attempting combining, and respecting
// queue capacity.
func (o *Omega) routeInto(stage, sw, inPort int, p *Packet) bool {
	out := (p.Dst >> (o.k - 1 - stage)) & 1
	q := o.fwd[stage][sw][out]
	if o.combining {
		if c, ok := p.Payload.(Combinable); ok {
			if key, keyOK := c.CombineKey(); keyOK {
				for _, queued := range q.buf {
					qc, isC := queued.Payload.(Combinable)
					if !isC {
						continue
					}
					qkey, qok := qc.CombineKey()
					if !qok || qkey != key {
						continue
					}
					if _, busy := o.decombine[stage][queued.id]; busy {
						continue // one decombine record per request per switch
					}
					merged, split := qc.Combine(c)
					queued.Payload = merged
					p.path = append(p.path, pathStep{stage: stage, sw: sw, inPort: inPort})
					o.decombine[stage][queued.id] = &splitRecord{split: split, partner: p}
					o.CombineOps.Inc()
					o.DecombineTable.Add(1)
					return true
				}
			}
		}
	}
	if q.full() {
		return false
	}
	p.path = append(p.path, pathStep{stage: stage, sw: sw, inPort: inPort})
	p.moved = o.now
	q.push(p)
	o.pending++
	return true
}

// Reply sends the response for a delivered request backward along its
// recorded path. The caller passes the original request packet (as handed
// to the forward delivery callback) and the reply payload. On success the
// request packet is consumed: its recorded path moves to the reply and the
// packet itself returns to the free list, so the caller must drop its
// reference. On refusal (reverse queue full) the request is untouched and
// the caller retries later.
func (o *Omega) Reply(request *Packet, payload interface{}) bool {
	o.now = o.clock(o, o.now)
	r := o.acquire()
	r.Src, r.Dst, r.Payload = request.Dst, request.Src, payload
	r.id, r.path = request.id, request.path
	r.InjectedAt = o.now
	if !o.reverseInto(r) {
		r.path = nil // still owned by the request
		o.ReleasePacket(r)
		o.rearm(o)
		return false
	}
	request.path = nil // now owned by the reply
	o.ReleasePacket(request)
	o.rearm(o)
	return true
}

// reverseInto places a reply at the switch named by its path tail.
func (o *Omega) reverseInto(r *Packet) bool {
	if len(r.path) == 0 {
		// fully retraced: out at the processor side
		o.stats.delivered(r, o.now)
		o.deliverRpl(r)
		return true
	}
	step := r.path[len(r.path)-1]
	q := o.rev[step.stage][step.sw][step.inPort]
	if q.full() {
		return false
	}
	r.path = r.path[:len(r.path)-1]
	r.moved = o.now
	q.push(r)
	o.pending++
	// Decombine: a second requester is waiting at this switch.
	if rec, ok := o.decombine[step.stage][r.id]; ok {
		delete(o.decombine[step.stage], r.id)
		o.DecombineTable.Add(-1)
		first, second := rec.split.Split(r.Payload)
		r.Payload = first
		partner := rec.partner
		reply := o.acquire()
		reply.Src, reply.Dst, reply.Payload = r.Src, partner.Src, second
		reply.id, reply.path = partner.id, partner.path[:len(partner.path)-1]
		reply.InjectedAt = o.now
		// The partner request is fully consumed: its path now belongs to
		// the decombined reply, and the packet returns to the pool.
		partner.path = nil
		o.ReleasePacket(partner)
		// The partner reply enters the same reverse flow; if its queue is
		// full it is retried next cycle via the deferred list.
		if !o.reverseInto(reply) {
			o.deferred = append(o.deferred, reply)
		}
	}
	return true
}

// Step advances one cycle.
func (o *Omega) Step(now sim.Cycle) {
	o.now = now
	// Retry deferred decombined replies first.
	if len(o.deferred) > 0 {
		rest := o.deferred[:0]
		for _, r := range o.deferred {
			if !o.reverseInto(r) {
				rest = append(rest, r)
			}
		}
		o.deferred = rest
	}
	// Forward: last stage exits to memory, earlier stages advance.
	for sw := 0; sw < o.n/2; sw++ {
		for out := 0; out < 2; out++ {
			q := o.fwd[o.k-1][sw][out]
			if h := q.head(); h != nil && h.moved != now {
				q.pop()
				o.pending--
				o.stats.delivered(h, now)
				o.deliverFwd(h)
			}
		}
	}
	for s := o.k - 2; s >= 0; s-- {
		for sw := 0; sw < o.n/2; sw++ {
			for out := 0; out < 2; out++ {
				q := o.fwd[s][sw][out]
				h := q.head()
				if h == nil || h.moved == now {
					continue
				}
				wire := o.shuffle(sw*2 + out)
				nsw, nin := wire/2, wire&1
				if o.routeInto(s+1, nsw, nin, h) {
					q.pop()
					o.pending--
					h.Hops++
				}
			}
		}
	}
	// Reverse: stage 0 exits to processors, later stages move backward.
	for sw := 0; sw < o.n/2; sw++ {
		for in := 0; in < 2; in++ {
			q := o.rev[0][sw][in]
			if h := q.head(); h != nil && h.moved != now {
				q.pop()
				o.pending--
				o.stats.delivered(h, now)
				o.deliverRpl(h)
			}
		}
	}
	for s := 1; s < o.k; s++ {
		for sw := 0; sw < o.n/2; sw++ {
			for in := 0; in < 2; in++ {
				q := o.rev[s][sw][in]
				h := q.head()
				if h == nil || h.moved == now {
					continue
				}
				if o.reverseIntoNext(h) {
					q.pop()
					o.pending--
					h.Hops++
				}
			}
		}
	}
}

// reverseIntoNext moves a reply one stage backward along its path.
func (o *Omega) reverseIntoNext(r *Packet) bool {
	return o.reverseInto(r)
}

// Pending reports packets in switch queues (both directions).
func (o *Omega) Pending() int { return o.pending + len(o.deferred) }

// Idle reports whether no packets are queued, in flight, or deferred.
func (o *Omega) Idle() bool { return o.Pending() == 0 }

// NextEvent: an omega network with traffic must route every cycle.
func (o *Omega) NextEvent(now sim.Cycle) sim.Cycle { return steppedNextEvent(o.Pending(), now) }

// Stats returns traffic counters. Forward deliveries and reply deliveries
// both count as Delivered.
func (o *Omega) Stats() *Stats { return o.stats }

var _ Network = (*Omega)(nil)
