package network

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// meshRig drives one mesh and logs what it delivers.
type meshRig struct {
	m   *Mesh
	log []string
	now sim.Cycle
}

func (r *meshRig) attach() {
	r.m.SetDelivery(func(p *Packet) {
		r.log = append(r.log, fmt.Sprintf("%d@%d/%d hops", p.id, r.now, p.Hops))
	})
}

func (r *meshRig) state() []byte {
	e := sim.NewEnc()
	r.m.SaveTo(e, nil)
	return e.Bytes()
}

// TestMeshCheckpointRoundTrip pauses a torus mid-run, with packets queued
// at injection and on its links, saves it and restores the bytes into a
// fresh torus. Driven on with the same traffic, the original and the
// restored torus must deliver the same packets at the same cycles, and
// re-save byte-identical state every cycle until both drain.
func TestMeshCheckpointRoundTrip(t *testing.T) {
	const w, h, trafficCycles, split = 5, 4, 120, 60
	orig := &meshRig{m: NewMesh(w, h, true, 2)}
	orig.attach()
	var restored *meshRig
	rng := sim.NewRNG(19)
	var id uint64
	for c := sim.Cycle(0); c < 2000; c++ {
		if c == split {
			onLinks := 0
			for _, qs := range orig.m.in {
				for _, q := range qs[meshWest:] {
					onLinks += len(q.buf)
				}
			}
			if onLinks < w*h {
				t.Fatalf("only %d packets on links at cycle %d: the split carries too little", onLinks, c)
			}
			data := orig.state()
			fresh := NewMesh(w, h, true, 2)
			d := sim.NewDec(data)
			if err := fresh.LoadFrom(d, nil); err != nil {
				t.Fatalf("restore at cycle %d: %v", c, err)
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("restore at cycle %d: %v", c, err)
			}
			restored = &meshRig{m: fresh}
			restored.attach()
			if !bytes.Equal(restored.state(), data) {
				t.Fatal("the restored torus re-saves different bytes")
			}
			orig.log = orig.log[:0]
		}
		for src := 0; c < trafficCycles && src < w*h; src++ {
			if !rng.Bool(0.5) {
				continue
			}
			dst := rng.Intn(w * h)
			id++
			a := orig.m.Send(&Packet{Src: src, Dst: dst, id: id})
			if restored != nil {
				if b := restored.m.Send(&Packet{Src: src, Dst: dst, id: id}); a != b {
					t.Fatalf("cycle %d: Send(%d->%d) accepted=%v, restored %v", c, src, dst, a, b)
				}
			}
		}
		orig.now = c
		orig.m.Step(c)
		if restored == nil {
			continue
		}
		restored.now = c
		restored.m.Step(c)
		if fmt.Sprint(orig.log) != fmt.Sprint(restored.log) {
			t.Fatalf("cycle %d: deliveries since the split differ:\n  original %v\n  restored %v", c, orig.log, restored.log)
		}
		if !bytes.Equal(orig.state(), restored.state()) {
			t.Fatalf("cycle %d: restored torus state diverged", c)
		}
		if c >= trafficCycles && orig.m.Idle() {
			break
		}
	}
	if !orig.m.Idle() || !restored.m.Idle() {
		t.Fatalf("did not drain: %d pending, restored %d", orig.m.Pending(), restored.m.Pending())
	}
	if n := len(restored.log); n < 100 {
		t.Fatalf("only %d deliveries after the split; the traffic is too thin", n)
	}
}
