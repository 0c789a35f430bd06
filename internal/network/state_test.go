package network

import (
	"testing"

	"repro/internal/sim"
)

// TestLoadRejectsPacketOutsidePorts: a checkpoint whose packet names a
// port its fabric does not have must fail to load, for every
// checkpointable fabric and the retry queue. Accepting it would restore
// cleanly and panic later, when the packet is routed or delivered.
func TestLoadRejectsPacketOutsidePorts(t *testing.T) {
	fabrics := []struct {
		name string
		make func() Network
	}{
		{"ideal", func() Network { return NewIdeal(4, 2) }},
		{"crossbar", func() Network { return NewCrossbar(4, 2, 4) }},
		{"mesh", func() Network { return NewMesh(2, 2, true, 4) }},
		{"hypercube", func() Network { return NewHypercube(2, 4) }},
		{"omega", func() Network { return NewOmega(2, 4, false) }},
	}
	corruptions := []struct {
		name string
		set  func(p *Packet, ports int)
	}{
		{"dst=ports", func(p *Packet, ports int) { p.Dst = ports }},
		{"src=-1", func(p *Packet, _ int) { p.Src = -1 }},
	}
	for _, f := range fabrics {
		for _, c := range corruptions {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				net := f.make()
				net.SetDelivery(func(*Packet) {})
				p := &Packet{Src: 0, Dst: 1}
				if !net.Send(p) {
					t.Fatal("fabric refused the packet")
				}
				c.set(p, net.Ports())
				var e sim.Enc
				net.(Checkpointable).SaveTo(&e, nil)
				if err := f.make().(Checkpointable).LoadFrom(sim.NewDec(e.Bytes()), nil); err == nil {
					t.Fatalf("LoadFrom accepted a packet %d->%d on %d ports", p.Src, p.Dst, net.Ports())
				}
			})
		}
	}
	for _, c := range corruptions {
		t.Run("retry/"+c.name, func(t *testing.T) {
			q := NewRetryQueue(func(*Packet) bool { return false })
			p := &Packet{Src: 0, Dst: 1}
			q.Send(p)
			c.set(p, 4)
			var e sim.Enc
			q.SaveTo(&e, nil)
			fresh := NewRetryQueue(func(*Packet) bool { return false })
			if err := fresh.LoadFrom(sim.NewDec(e.Bytes()), nil, 4); err == nil {
				t.Fatalf("LoadFrom accepted a packet %d->%d on 4 ports", p.Src, p.Dst)
			}
		})
	}
}
