package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refArbitrate is the all-outputs crossbar Step that the requested-output
// walk replaced, kept as the reference it must match. It visits every
// output every cycle and grants the first input, at or cyclically after
// the output's round-robin pointer, whose head-of-line packet addresses
// that output — found by scanning the queues themselves, so the reference
// does not lean on the bitmasks under test.
func refArbitrate(c *Crossbar, now sim.Cycle) {
	c.now = now
	for c.inflight.Len() > 0 && c.inflight.Peek().at <= now {
		p := c.inflight.Pop().p
		c.pending--
		c.stats.delivered(p, now)
		c.deliver(p)
	}
	for out := 0; out < c.ports; out++ {
		granted := -1
		for k := 0; k < c.ports; k++ {
			i := (c.rr[out] + k) % c.ports
			if h := c.in[i].head(); h != nil && h.Dst == out {
				granted = i
				break
			}
		}
		if granted < 0 {
			continue
		}
		p := c.in[granted].pop()
		c.syncHead(granted)
		p.Hops = 1
		c.inflight.Push(flight{at: now + c.switchDelay, p: p})
		c.rr[out] = (granted + 1) % c.ports
	}
}

// xbarRig drives one crossbar and logs what it delivers.
type xbarRig struct {
	x   *Crossbar
	log []string
	now sim.Cycle
}

func newXbarRig(ports int, delay sim.Cycle) *xbarRig {
	r := &xbarRig{x: NewCrossbar(ports, delay, 4)}
	r.attach()
	return r
}

// attach logs each delivery as id@cycle and answers every third packet
// with a reply from its destination port, so Send also runs inside Step.
func (r *xbarRig) attach() {
	r.x.SetDelivery(func(p *Packet) {
		r.log = append(r.log, fmt.Sprintf("%d@%d", p.id, r.now))
		if p.id%3 == 0 {
			r.x.Send(&Packet{Src: p.Dst, Dst: p.Src, id: p.id + 1<<32})
		}
	})
}

func (r *xbarRig) state() []byte {
	e := sim.NewEnc()
	r.x.SaveTo(e, nil)
	return e.Bytes()
}

// TestCrossbarMatchesAllOutputsArbiter drives seeded random traffic with a
// hot-spot output through the crossbar and through the reference arbiter,
// at port counts spanning one to three mask words. Every cycle, both must
// have accepted the same packets and delivered the same ones at the same
// cycles, and their whole checkpointed state — queues, round-robin
// pointers, in-flight order and statistics — must be byte-identical.
// Halfway through, the crossbar is restored from its own checkpoint into a
// fresh instance, so the derived masks LoadFrom rebuilds are held to the
// same standard.
func TestCrossbarMatchesAllOutputsArbiter(t *testing.T) {
	for _, ports := range []int{3, 64, 65, 128, 130} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("ports=%d/seed=%d", ports, seed), func(t *testing.T) {
				delay := sim.Cycle(1 + seed%2)
				got, want := newXbarRig(ports, delay), newXbarRig(ports, delay)
				rng := sim.NewRNG(seed*1000 + uint64(ports))
				hot := rng.Intn(ports)
				const trafficCycles, drainCycles = 300, 2000
				var id uint64
				for c := sim.Cycle(0); c < trafficCycles+drainCycles; c++ {
					if c == trafficCycles/2 {
						data := got.state()
						fresh := NewCrossbar(ports, delay, 4)
						d := sim.NewDec(data)
						if err := fresh.LoadFrom(d, nil); err != nil {
							t.Fatalf("restore at cycle %d: %v", c, err)
						}
						if err := d.Finish(); err != nil {
							t.Fatalf("restore at cycle %d: %v", c, err)
						}
						got.x = fresh
						got.attach()
					}
					for i := 0; c < trafficCycles && i < ports; i++ {
						if !rng.Bool(0.3) {
							continue
						}
						dst := hot
						if rng.Bool(0.5) {
							dst = rng.Intn(ports)
						}
						id++
						a := got.x.Send(&Packet{Src: i, Dst: dst, id: id})
						b := want.x.Send(&Packet{Src: i, Dst: dst, id: id})
						if a != b {
							t.Fatalf("cycle %d: Send(%d->%d) accepted=%v, reference %v", c, i, dst, a, b)
						}
					}
					got.now, want.now = c, c
					got.x.Step(c)
					refArbitrate(want.x, c)
					if len(got.log) != len(want.log) {
						t.Fatalf("cycle %d: %d deliveries, reference %d", c, len(got.log), len(want.log))
					}
					for k := range got.log {
						if got.log[k] != want.log[k] {
							t.Fatalf("cycle %d: delivery %d is %s, reference %s", c, k, got.log[k], want.log[k])
						}
					}
					if !bytes.Equal(got.state(), want.state()) {
						t.Fatalf("cycle %d: crossbar state diverged from the reference (rr %v, reference %v)", c, got.x.rr, want.x.rr)
					}
					if c >= trafficCycles && want.x.Idle() {
						break
					}
				}
				if !got.x.Idle() || !want.x.Idle() {
					t.Fatalf("did not drain: %d pending, reference %d", got.x.Pending(), want.x.Pending())
				}
				if n := got.x.Stats().Delivered.Value(); n < 100 {
					t.Fatalf("only %d packets delivered; the traffic is too thin to compare arbiters", n)
				}
			})
		}
	}
}

// TestFirstSetFromMatchesLinearScan checks the cyclic find-first-set
// against a bit-by-bit scan, across word boundaries.
func TestFirstSetFromMatchesLinearScan(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, n := range []int{1, 63, 64, 65, 128, 130, 192} {
		mask := make([]uint64, (n+63)/64)
		for trial := 0; trial < 200; trial++ {
			clear(mask)
			for k := rng.Intn(4); k > 0; k-- {
				b := rng.Intn(n)
				mask[b>>6] |= 1 << (uint(b) & 63)
			}
			start := rng.Intn(n)
			want := -1
			for k := 0; k < n; k++ {
				if b := (start + k) % n; mask[b>>6]&(1<<(uint(b)&63)) != 0 {
					want = b
					break
				}
			}
			if got := firstSetFrom(mask, start); got != want {
				t.Fatalf("n=%d mask=%x start=%d: firstSetFrom=%d, want %d", n, mask, start, got, want)
			}
		}
	}
}
