package istructure

import (
	"sort"

	"repro/internal/sim"
)

// Checkpoint serialization. A module's opaque payloads — cell values,
// queued request values, and ReplyTo continuations — serialize through a
// Codec the owning machine supplies, mirroring network.PayloadCodec.
// Construction-time configuration (size and the respond callback) is not
// serialized: state restores into a freshly built module of identical
// shape. The cell table restores canonically: entries are written in
// ascending index order, which keeps encode→decode→encode byte-stable
// regardless of hash-table history.

// Codec serializes a module's opaque Value and ReplyTo payloads.
type Codec interface {
	SaveValue(e *sim.Enc, v interface{})
	LoadValue(d *sim.Dec) interface{}
	SaveReply(e *sim.Enc, r interface{})
	LoadReply(d *sim.Dec) interface{}
}

// saveOpt writes a nil-flagged payload.
func saveOpt(e *sim.Enc, v interface{}, save func(*sim.Enc, interface{})) {
	e.Bool(v != nil)
	if v != nil {
		save(e, v)
	}
}

// loadOpt reads a nil-flagged payload.
func loadOpt(d *sim.Dec, load func(*sim.Dec) interface{}) interface{} {
	if !d.Bool() || d.Err() != nil {
		return nil
	}
	return load(d)
}

// saveRequest appends one queued request.
func saveRequest(e *sim.Enc, c Codec, r Request) {
	e.U8(uint8(r.Op))
	e.U32(r.Addr)
	saveOpt(e, r.Value, c.SaveValue)
	saveOpt(e, r.ReplyTo, c.SaveReply)
}

// loadRequest reads one queued request, validating the opcode and the
// address range.
func loadRequest(d *sim.Dec, c Codec, size uint32) Request {
	var r Request
	r.Op = Op(d.U8())
	r.Addr = d.U32()
	r.Value = loadOpt(d, c.LoadValue)
	r.ReplyTo = loadOpt(d, c.LoadReply)
	if d.Err() == nil {
		if r.Op > OpWrite {
			d.Failf("invalid I-structure op %d", r.Op)
		} else if r.Addr >= size {
			d.Failf("queued request address %d outside module [0,%d)", r.Addr, size)
		}
	}
	return r
}

// SaveTo appends the module's dynamic state.
func (m *Module) SaveTo(e *sim.Enc, c Codec) {
	e.Tag("ismod", 1)
	e.Cycle(m.busyUntil)
	e.Cycle(m.lastStep)
	m.stats.Reads.Save(e)
	m.stats.Writes.Save(e)
	m.stats.DeferredReads.Save(e)
	m.stats.ImmediateReads.Save(e)
	m.stats.Errors.Save(e)
	m.stats.DeferListLen.Save(e)
	m.stats.Outstanding.Save(e)
	m.stats.Busy.Save(e)
	sim.SaveFIFO(e, &m.queue, func(e *sim.Enc, r Request) { saveRequest(e, c, r) })

	// Touched cells in ascending index order. A touched cell is never
	// Empty: a read defers on it and a write fills it.
	type entry struct {
		k uint32
		c *cell
	}
	var ents []entry
	for b, s := range m.cells.idx {
		if s != cellEmpty {
			ents = append(ents, entry{m.cells.keys[b], &m.cells.slab[s]})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].k < ents[j].k })
	e.Len(len(ents))
	for _, en := range ents {
		e.U32(en.k)
		e.U8(uint8(en.c.state))
		saveOpt(e, en.c.value, c.SaveValue)
		e.Len(len(en.c.waiters))
		for _, w := range en.c.waiters {
			c.SaveReply(e, w)
		}
	}
}

// LoadFrom restores the module into its freshly constructed self.
func (m *Module) LoadFrom(d *sim.Dec, c Codec) error {
	if err := d.Tag("ismod", 1); err != nil {
		return err
	}
	m.busyUntil = d.Cycle()
	m.lastStep = d.Cycle()
	m.stats.Reads.Load(d)
	m.stats.Writes.Load(d)
	m.stats.DeferredReads.Load(d)
	m.stats.ImmediateReads.Load(d)
	m.stats.Errors.Load(d)
	m.stats.DeferListLen.Load(d)
	m.stats.Outstanding.Load(d)
	m.stats.Busy.Load(d)
	if err := sim.LoadFIFO(d, &m.queue, d.Remaining(), func(d *sim.Dec) Request {
		return loadRequest(d, c, m.size)
	}); err != nil {
		return err
	}

	m.cells = cellTable{}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	waiting := 0
	prev := int64(-1)
	for i := 0; i < n; i++ {
		k := d.U32()
		st := CellState(d.U8())
		val := loadOpt(d, c.LoadValue)
		nw := d.Len(d.Remaining())
		if d.Err() != nil {
			return d.Err()
		}
		if int64(k) <= prev {
			d.Failf("cell index %d out of order (previous %d)", k, prev)
			return d.Err()
		}
		prev = int64(k)
		if k >= m.size {
			d.Failf("cell index %d outside module of %d cells", k, m.size)
			return d.Err()
		}
		if st == Empty || st > Present {
			d.Failf("invalid cell state %d", st)
			return d.Err()
		}
		if (st == Deferred) != (nw > 0) {
			d.Failf("cell %d state %s with %d waiters", k, st, nw)
			return d.Err()
		}
		cl := m.cells.get(k)
		cl.state = st
		cl.value = val
		for j := 0; j < nw && d.Err() == nil; j++ {
			cl.waiters = append(cl.waiters, c.LoadReply(d))
		}
		waiting += nw
		if d.Err() != nil {
			return d.Err()
		}
	}
	if got := m.stats.Outstanding.Level(); got != int64(waiting) {
		d.Failf("outstanding gauge %d, cells hold %d deferred readers", got, waiting)
	}
	return d.Err()
}
