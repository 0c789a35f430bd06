package network

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// drive steps the network until no packets are pending or maxCycles pass.
func drive(t *testing.T, n Network, maxCycles int) int {
	t.Helper()
	for c := 0; c < maxCycles; c++ {
		if n.Pending() == 0 {
			return c
		}
		n.Step(sim.Cycle(c))
	}
	if n.Pending() != 0 {
		t.Fatalf("network did not drain within %d cycles (%d pending)", maxCycles, n.Pending())
	}
	return maxCycles
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue(3)
	a, b, c, d := &Packet{Src: 1}, &Packet{Src: 2}, &Packet{Src: 3}, &Packet{Src: 4}
	if !q.push(a) || !q.push(b) || !q.push(c) {
		t.Fatal("pushes within capacity must succeed")
	}
	if q.push(d) {
		t.Fatal("push beyond capacity must fail")
	}
	if q.pop() != a || q.pop() != b || q.pop() != c {
		t.Fatal("FIFO order broken")
	}
	if q.pop() != nil || q.head() != nil {
		t.Fatal("empty queue must return nil")
	}
}

func TestIdealFixedLatency(t *testing.T) {
	n := NewIdeal(4, 10)
	var got []*Packet
	var at []sim.Cycle
	now := sim.Cycle(0)
	n.SetDelivery(func(p *Packet) { got = append(got, p); at = append(at, now) })
	n.Step(0)
	n.Send(&Packet{Src: 0, Dst: 3})
	n.Send(&Packet{Src: 1, Dst: 2})
	for c := sim.Cycle(1); c <= 20; c++ {
		now = c
		n.Step(c)
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(got))
	}
	for _, d := range at {
		if d != 10 {
			t.Fatalf("delivered at cycle %d, want exactly 10", d)
		}
	}
	if n.Pending() != 0 {
		t.Fatal("pending after drain")
	}
}

func TestCrossbarContention(t *testing.T) {
	// Two inputs to the same output serialize: second arrives one cycle
	// after the first.
	x := NewCrossbar(4, 1, 8)
	var deliveredAt []sim.Cycle
	now := sim.Cycle(0)
	x.SetDelivery(func(p *Packet) { deliveredAt = append(deliveredAt, now) })
	x.Step(0)
	x.Send(&Packet{Src: 0, Dst: 2})
	x.Send(&Packet{Src: 1, Dst: 2})
	for c := sim.Cycle(1); c < 10 && x.Pending() > 0; c++ {
		now = c
		x.Step(c)
	}
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d", len(deliveredAt))
	}
	if deliveredAt[1] != deliveredAt[0]+1 {
		t.Fatalf("contending packets at %v, want 1 cycle apart", deliveredAt)
	}
}

func TestCrossbarDistinctOutputsParallel(t *testing.T) {
	x := NewCrossbar(4, 1, 8)
	count := 0
	x.SetDelivery(func(p *Packet) { count++ })
	x.Step(0)
	x.Send(&Packet{Src: 0, Dst: 1})
	x.Send(&Packet{Src: 1, Dst: 2})
	x.Send(&Packet{Src: 2, Dst: 3})
	x.Step(1)
	x.Step(2)
	if count != 3 {
		t.Fatalf("distinct outputs must not contend: delivered %d of 3 after transit", count)
	}
}

func TestCrossbarFairness(t *testing.T) {
	// Round-robin arbitration must not starve an input.
	x := NewCrossbar(2, 1, 64)
	perSrc := map[int]int{}
	x.SetDelivery(func(p *Packet) { perSrc[p.Src]++ })
	for c := sim.Cycle(0); c < 200; c++ {
		x.Send(&Packet{Src: 0, Dst: 1})
		x.Send(&Packet{Src: 1, Dst: 1})
		x.Step(c)
	}
	if perSrc[0] == 0 || perSrc[1] == 0 {
		t.Fatalf("starvation: %v", perSrc)
	}
	diff := perSrc[0] - perSrc[1]
	if diff < -2 || diff > 2 {
		t.Fatalf("unfair arbitration: %v", perSrc)
	}
}

func TestCrossbarCostQuadratic(t *testing.T) {
	if CrossbarCost(16) != 256 || CrossbarCost(64) != 4096 {
		t.Fatal("crossbar crosspoint cost must be n^2")
	}
}

func TestMeshDeliversEverything(t *testing.T) {
	m := NewMesh(4, 4, false, 8)
	received := map[int]int{}
	m.SetDelivery(func(p *Packet) { received[p.Dst]++ })
	// all-to-one plus some scattered traffic
	sent := 0
	for src := 0; src < 16; src++ {
		if m.Send(&Packet{Src: src, Dst: 15}) {
			sent++
		}
		if m.Send(&Packet{Src: src, Dst: src ^ 1}) {
			sent++
		}
	}
	drive(t, m, 1000)
	total := 0
	for _, c := range received {
		total += c
	}
	if total != sent {
		t.Fatalf("delivered %d of %d", total, sent)
	}
}

func TestMeshHopsMatchManhattanDistance(t *testing.T) {
	m := NewMesh(5, 5, false, 8)
	var last *Packet
	m.SetDelivery(func(p *Packet) { last = p })
	p := &Packet{Src: m.Node(0, 0), Dst: m.Node(3, 4)}
	m.Send(p)
	drive(t, m, 100)
	if last == nil {
		t.Fatal("not delivered")
	}
	if last.Hops != 7 {
		t.Fatalf("hops = %d, want 7 (Manhattan distance)", last.Hops)
	}
}

func TestTorusWrapsAround(t *testing.T) {
	m := NewMesh(8, 1, true, 8)
	var last *Packet
	m.SetDelivery(func(p *Packet) { last = p })
	m.Send(&Packet{Src: 0, Dst: 7})
	drive(t, m, 100)
	if last.Hops != 1 {
		t.Fatalf("torus 0->7 took %d hops, want 1 (wraparound)", last.Hops)
	}
	if m.DistanceXY(0, 7) != 1 {
		t.Fatalf("DistanceXY(0,7) = %d on torus", m.DistanceXY(0, 7))
	}
}

func TestHypercubeECubeHops(t *testing.T) {
	h := NewHypercube(4, 8)
	var last *Packet
	h.SetDelivery(func(p *Packet) { last = p })
	h.Send(&Packet{Src: 0b0000, Dst: 0b1011})
	drive(t, h, 100)
	if last.Hops != 3 {
		t.Fatalf("hops = %d, want Hamming distance 3", last.Hops)
	}
}

func TestHypercubeAllToAll(t *testing.T) {
	h := NewHypercube(3, 16)
	count := 0
	h.SetDelivery(func(p *Packet) { count++ })
	sent := 0
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s != d && h.Send(&Packet{Src: s, Dst: d}) {
				sent++
			}
		}
	}
	drive(t, h, 1000)
	if count != sent {
		t.Fatalf("delivered %d of %d", count, sent)
	}
}

func TestHammingDistanceProperty(t *testing.T) {
	if err := quick.Check(func(a, b uint8) bool {
		d := HammingDistance(int(a), int(b))
		if d != HammingDistance(int(b), int(a)) {
			return false
		}
		if a == b && d != 0 {
			return false
		}
		return d >= 0 && d <= 8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// faaPayload is the FETCH-AND-ADD request used to exercise combining.
type faaPayload struct {
	addr  uint64
	delta int64
}

func (f faaPayload) CombineKey() (uint64, bool) { return f.addr, true }

func (f faaPayload) Combine(other Combinable) (Combinable, Splitter) {
	o := other.(faaPayload)
	return faaPayload{addr: f.addr, delta: f.delta + o.delta}, faaSplitter{held: f.delta}
}

// faaSplitter decombines a test FETCH-AND-ADD reply.
type faaSplitter struct {
	held int64
}

func (s faaSplitter) Split(reply interface{}) (interface{}, interface{}) {
	v := reply.(int64)
	return v, v + s.held
}

func TestOmegaRoutesToCorrectMemory(t *testing.T) {
	o := NewOmega(3, 8, false)
	arrived := map[int]int{}
	o.SetDelivery(func(p *Packet) { arrived[p.Dst]++ })
	o.SetReplyDelivery(func(p *Packet) {})
	for s := 0; s < 8; s++ {
		o.Send(&Packet{Src: s, Dst: (s + 3) % 8, Payload: nil})
	}
	for c := sim.Cycle(0); c < 50; c++ {
		o.Step(c)
	}
	if len(arrived) != 8 {
		t.Fatalf("arrived at %d distinct memories, want 8: %v", len(arrived), arrived)
	}
}

func TestOmegaRequestReplyRoundTrip(t *testing.T) {
	o := NewOmega(3, 8, false)
	var replies []*Packet
	o.SetDelivery(func(p *Packet) {
		// memory: respond immediately with the address payload echoed
		o.Reply(p, p.Payload)
	})
	o.SetReplyDelivery(func(p *Packet) { replies = append(replies, p) })
	for s := 0; s < 8; s++ {
		o.Send(&Packet{Src: s, Dst: 5, Payload: s * 100})
	}
	for c := sim.Cycle(0); c < 200 && len(replies) < 8; c++ {
		o.Step(c)
	}
	if len(replies) != 8 {
		t.Fatalf("got %d replies, want 8", len(replies))
	}
	for _, r := range replies {
		if r.Payload.(int) != r.Dst*100 {
			t.Fatalf("reply %v carries wrong payload %v", r.Dst, r.Payload)
		}
	}
}

// runFAA drives n simultaneous FETCH-AND-ADD(0, 1) requests at one memory
// cell through the omega network and returns the fetched values plus the
// final memory value.
func runFAA(t *testing.T, k int, combining bool) (fetched []int64, final int64, o *Omega) {
	t.Helper()
	n := 1 << k
	o = NewOmega(k, 8, combining)
	var mem int64
	o.SetDelivery(func(p *Packet) {
		req := p.Payload.(faaPayload)
		old := mem
		mem += req.delta
		if !o.Reply(p, old) {
			t.Fatal("reply refused")
		}
	})
	o.SetReplyDelivery(func(p *Packet) { fetched = append(fetched, p.Payload.(int64)) })
	for s := 0; s < n; s++ {
		if !o.Send(&Packet{Src: s, Dst: 0, Payload: faaPayload{addr: 0, delta: 1}}) {
			t.Fatalf("send %d refused", s)
		}
	}
	for c := sim.Cycle(0); c < 10000 && len(fetched) < n; c++ {
		o.Step(c)
	}
	if len(fetched) != n {
		t.Fatalf("got %d replies, want %d (combining=%t)", len(fetched), n, combining)
	}
	return fetched, mem, o
}

func TestOmegaFetchAndAddSerialSemantics(t *testing.T) {
	for _, combining := range []bool{false, true} {
		fetched, final, _ := runFAA(t, 4, combining)
		if final != 16 {
			t.Fatalf("combining=%t: final = %d, want 16", combining, final)
		}
		// The 16 fetched values must be a permutation of 0..15: the
		// serialization property of FETCH-AND-ADD.
		seen := map[int64]bool{}
		for _, v := range fetched {
			if v < 0 || v > 15 || seen[v] {
				t.Fatalf("combining=%t: fetched values not a permutation: %v", combining, fetched)
			}
			seen[v] = true
		}
	}
}

func TestOmegaCombiningReducesMemoryTraffic(t *testing.T) {
	_, _, plain := runFAA(t, 4, false)
	_, _, comb := runFAA(t, 4, true)
	if comb.CombineOps.Value() == 0 {
		t.Fatal("combining performed no switch additions on a hot spot")
	}
	// With combining, far fewer requests reach the memory module.
	plainMem := plain.Stats().Delivered.Value()
	combMem := comb.Stats().Delivered.Value()
	if combMem >= plainMem {
		t.Fatalf("combining did not reduce deliveries: %d vs %d", combMem, plainMem)
	}
}

func TestOmegaCombineOpsBounded(t *testing.T) {
	// n requests can combine at most n-1 times.
	_, _, comb := runFAA(t, 4, true)
	if ops := comb.CombineOps.Value(); ops > 15 {
		t.Fatalf("combine ops = %d, want <= 15", ops)
	}
}

func TestMeshSaturationNoLoss(t *testing.T) {
	// Saturating random traffic: every accepted packet must eventually be
	// delivered (no loss, no duplication) even under sustained overload.
	m := NewMesh(4, 4, true, 4)
	delivered := map[*Packet]int{}
	m.SetDelivery(func(p *Packet) { delivered[p]++ })
	rng := sim.NewRNG(3)
	accepted := 0
	for c := sim.Cycle(0); c < 3000; c++ {
		if c < 2000 {
			for s := 0; s < 16; s++ {
				p := &Packet{Src: s, Dst: rng.Intn(16)}
				if m.Send(p) {
					accepted++
				}
			}
		}
		m.Step(c)
	}
	for c := sim.Cycle(3000); m.Pending() > 0 && c < 20000; c++ {
		m.Step(c)
	}
	if m.Pending() != 0 {
		t.Fatalf("mesh wedged with %d packets", m.Pending())
	}
	if len(delivered) != accepted {
		t.Fatalf("delivered %d distinct packets of %d accepted", len(delivered), accepted)
	}
	for p, n := range delivered {
		if n != 1 {
			t.Fatalf("packet %v delivered %d times", p, n)
		}
	}
	if m.Stats().Refused.Value() == 0 {
		t.Fatal("saturation test never hit backpressure — not saturated")
	}
}

func TestHypercubeSaturationNoLoss(t *testing.T) {
	h := NewHypercube(4, 4)
	delivered := 0
	h.SetDelivery(func(p *Packet) { delivered++ })
	rng := sim.NewRNG(9)
	accepted := 0
	for c := sim.Cycle(0); c < 2000; c++ {
		if c < 1200 {
			for s := 0; s < 16; s++ {
				if h.Send(&Packet{Src: s, Dst: rng.Intn(16)}) {
					accepted++
				}
			}
		}
		h.Step(c)
	}
	for c := sim.Cycle(2000); h.Pending() > 0 && c < 20000; c++ {
		h.Step(c)
	}
	if h.Pending() != 0 {
		t.Fatalf("hypercube wedged with %d packets", h.Pending())
	}
	if delivered != accepted {
		t.Fatalf("delivered %d of %d accepted", delivered, accepted)
	}
}

func TestOmegaSaturationRoundTrips(t *testing.T) {
	// Sustained request/reply traffic through the omega network with
	// combining enabled: every request gets exactly one reply.
	o := NewOmega(4, 4, true)
	replies := 0
	o.SetDelivery(func(p *Packet) {
		// bounce immediately
		for !o.Reply(p, int64(1)) {
			// reply refused: the caller (us) must retry — spin via a queue
			// in real machines; here the reverse queue frees within steps,
			// so requeue through deferred handling by stepping once is not
			// available; simply retrying in a tight loop would livelock,
			// so stash it:
			pendingReplies = append(pendingReplies, p)
			return
		}
	})
	o.SetReplyDelivery(func(p *Packet) { replies++ })
	rng := sim.NewRNG(17)
	sent := 0
	for c := sim.Cycle(0); c < 4000; c++ {
		for _, p := range pendingReplies {
			if !o.Reply(p, int64(1)) {
				break
			}
			pendingReplies = pendingReplies[1:]
		}
		if c < 1500 {
			for s := 0; s < 16; s++ {
				pl := faaPayload{addr: uint64(rng.Intn(4)), delta: 1}
				if o.Send(&Packet{Src: s, Dst: int(pl.addr), Payload: pl}) {
					sent++
				}
			}
		}
		o.Step(c)
	}
	for c := sim.Cycle(4000); (o.Pending() > 0 || len(pendingReplies) > 0) && c < 50000; c++ {
		for len(pendingReplies) > 0 && o.Reply(pendingReplies[0], int64(1)) {
			pendingReplies = pendingReplies[1:]
		}
		o.Step(c)
	}
	if replies != sent {
		t.Fatalf("%d replies for %d requests", replies, sent)
	}
}

var pendingReplies []*Packet
