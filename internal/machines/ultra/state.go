package ultra

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/vn"
)

// Checkpoint serialization. Packets in the omega network (and parked in
// banks and decombine records) carry ultra-specific payloads; payloadCodec
// round-trips them, rebinding continuation closures through vn.Resolver.

// Payload kind tags.
const (
	plFaaReq uint8 = iota + 1
	plPlainReq
	plReply
	plFaaSplit
)

type payloadCodec struct {
	resolve vn.DoneResolver
}

func (c payloadCodec) Save(e *sim.Enc, v interface{}) {
	switch p := v.(type) {
	case faaReq:
		e.U8(plFaaReq)
		e.U32(p.addr)
		e.I64(p.delta)
		vn.SaveDoneRef(e, p.ref)
	case plainReq:
		e.U8(plPlainReq)
		vn.SaveMemRequest(e, p.req)
	case reply:
		e.U8(plReply)
		e.I64(p.val)
		vn.SaveDoneRef(e, p.ref)
	case faaSplit:
		e.U8(plFaaSplit)
		e.I64(p.delta)
		vn.SaveDoneRef(e, p.firstRef)
		vn.SaveDoneRef(e, p.secondRef)
	default:
		panic(fmt.Sprintf("ultra: unserializable payload %T", v))
	}
}

func (c payloadCodec) Load(d *sim.Dec) interface{} {
	switch k := d.U8(); k {
	case plFaaReq:
		p := faaReq{addr: d.U32(), delta: d.I64(), ref: vn.LoadDoneRef(d)}
		p.done = vn.MustResolve(d, c.resolve, p.ref)
		return p
	case plPlainReq:
		return plainReq{req: vn.LoadMemRequest(d, c.resolve)}
	case plReply:
		r := reply{val: d.I64(), ref: vn.LoadDoneRef(d)}
		r.done = vn.MustResolve(d, c.resolve, r.ref)
		return r
	case plFaaSplit:
		s := faaSplit{
			delta:     d.I64(),
			firstRef:  vn.LoadDoneRef(d),
			secondRef: vn.LoadDoneRef(d),
		}
		s.first = vn.MustResolve(d, c.resolve, s.firstRef)
		s.second = vn.MustResolve(d, c.resolve, s.secondRef)
		return s
	default:
		if d.Err() == nil {
			d.Failf("ultra: unknown payload kind %d", k)
		}
		return nil
	}
}

func savePendingReply(e *sim.Enc, pr pendingReply, pc payloadCodec) {
	network.SavePacket(e, pr.pkt, pc)
	pc.Save(e, pr.payload)
	e.Cycle(pr.due)
}

func loadPendingReply(d *sim.Dec, pc payloadCodec, ports int) pendingReply {
	return pendingReply{
		pkt:     network.LoadPacket(d, pc, ports),
		payload: pc.Load(d),
		due:     d.Cycle(),
	}
}

func (b *bank) save(e *sim.Enc, pc payloadCodec) {
	sim.SaveU32Map(e, b.words, func(e *sim.Enc, w vn.Word) { e.I64(w) })
	e.Cycle(b.busyUntil)
	e.U64(b.served)
	e.Len(len(b.queue))
	for _, p := range b.queue {
		network.SavePacket(e, p, pc)
	}
	e.Bool(b.inService.pkt != nil)
	if b.inService.pkt != nil {
		savePendingReply(e, b.inService, pc)
	}
	e.Len(len(b.pendingReplies))
	for _, pr := range b.pendingReplies {
		savePendingReply(e, pr, pc)
	}
}

func (b *bank) load(d *sim.Dec, pc payloadCodec, ports int) error {
	sim.LoadU32Map(d, b.words, func(d *sim.Dec) vn.Word { return d.I64() })
	b.busyUntil = d.Cycle()
	b.served = d.U64()
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	b.queue = b.queue[:0]
	for i := 0; i < n; i++ {
		b.queue = append(b.queue, network.LoadPacket(d, pc, ports))
	}
	b.inService = pendingReply{}
	if d.Bool() {
		b.inService = loadPendingReply(d, pc, ports)
	}
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	b.pendingReplies = b.pendingReplies[:0]
	for i := 0; i < n; i++ {
		b.pendingReplies = append(b.pendingReplies, loadPendingReply(d, pc, ports))
	}
	return d.Err()
}

// SaveState appends the whole machine's dynamic state (sim.Stateful).
func (m *Machine) SaveState(e *sim.Enc) {
	e.Tag("ultra", 1)
	m.engine.SaveState(e)
	pc := payloadCodec{}
	m.sendRetry.SaveTo(e, pc)
	m.net.SaveTo(e, pc)
	e.Len(len(m.banks))
	for _, b := range m.banks {
		b.save(e, pc)
	}
	e.Len(len(m.cores))
	for _, c := range m.cores {
		c.SaveState(e)
	}
}

// LoadState restores the machine (sim.Stateful).
func (m *Machine) LoadState(d *sim.Dec) error {
	if err := d.Tag("ultra", 1); err != nil {
		return err
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	pc := payloadCodec{resolve: vn.Resolver(m.cores)}
	if err := m.sendRetry.LoadFrom(d, pc, m.net.Ports()); err != nil {
		return err
	}
	if err := m.net.LoadFrom(d, pc); err != nil {
		return err
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.banks) {
		d.Failf("checkpoint has %d banks, machine has %d", n, len(m.banks))
		return d.Err()
	}
	for _, b := range m.banks {
		if err := b.load(d, pc, m.net.Ports()); err != nil {
			return err
		}
	}
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.cores) {
		d.Failf("checkpoint has %d cores, machine has %d", n, len(m.cores))
		return d.Err()
	}
	for _, c := range m.cores {
		if err := c.LoadState(d); err != nil {
			return err
		}
	}
	return d.Err()
}

var _ sim.Stateful = (*Machine)(nil)
