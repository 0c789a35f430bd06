package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/istructure"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
)

// Checkpoint serialization for the whole TTDA machine (sim.Stateful). The
// stream covers the engine, the context manager, the allocator, every PE's
// stage queues and waiting-matching store, the interconnect, and every
// I-structure module — everything needed to resume bit-identically.
//
// What is rebuilt rather than serialized: the program and its compiled
// plan (static, built at machine construction), packet and context-record
// free lists (host-side pools), and plan-instruction pointers inside queued
// requests and context records (re-derived from activity names, so the
// stream holds no host addresses). Hash tables — the waiting-matching
// store and the I-structure cell tables — are written in sorted key order
// and rebuilt by insertion: the rebuilt layout may differ internally,
// which is fine because no simulation step iterates them.

// isCodec serializes the machine's opaque payloads: the isRequest packets
// crossing the network (network.PayloadCodec) and the token values and
// replyTag continuations held by I-structure modules (istructure.Codec).
type isCodec struct{ m *Machine }

func saveReplyTag(e *sim.Enc, rt replyTag) {
	token.SaveActivity(e, rt.activity)
	e.U8(rt.port)
	e.U8(rt.nt)
}

// loadReplyTag reads a FETCH continuation, failing the decoder unless it
// names a statement of the program and an operand port.
func (c isCodec) loadReplyTag(d *sim.Dec) replyTag {
	rt := replyTag{activity: token.LoadActivity(d), port: d.U8(), nt: d.U8()}
	if d.Err() == nil && rt.port > token.PortRight {
		d.Failf("reply to operand port %d", rt.port)
	} else if d.Err() == nil {
		c.m.checkActivity(d, rt.activity)
	}
	return rt
}

// Save implements network.PayloadCodec for isRequest payloads.
func (c isCodec) Save(e *sim.Enc, v interface{}) {
	r := v.(isRequest)
	e.U8(uint8(r.op))
	e.U32(r.addr)
	if r.op == istructure.OpRead {
		saveReplyTag(e, r.replyTo)
	} else {
		token.SaveValue(e, r.value)
	}
}

// Load implements network.PayloadCodec.
func (c isCodec) Load(d *sim.Dec) interface{} {
	r := isRequest{op: istructure.Op(d.U8()), addr: d.U32()}
	if d.Err() != nil {
		return r
	}
	switch r.op {
	case istructure.OpRead:
		r.replyTo = c.loadReplyTag(d)
	case istructure.OpWrite:
		r.value = token.LoadValue(d)
	default:
		d.Failf("invalid I-structure packet op %d", r.op)
	}
	return r
}

// SaveValue implements istructure.Codec: cell and request values are
// always token.Values in this machine.
func (c isCodec) SaveValue(e *sim.Enc, v interface{}) { token.SaveValue(e, v.(token.Value)) }

// LoadValue implements istructure.Codec.
func (c isCodec) LoadValue(d *sim.Dec) interface{} { return token.LoadValue(d) }

// SaveReply implements istructure.Codec: deferred-read continuations are
// always replyTags.
func (c isCodec) SaveReply(e *sim.Enc, r interface{}) { saveReplyTag(e, r.(replyTag)) }

// LoadReply implements istructure.Codec.
func (c isCodec) LoadReply(d *sim.Dec) interface{} { return c.loadReplyTag(d) }

// activityLess orders activity names for canonical hash-table dumps.
func activityLess(a, b token.ActivityName) bool {
	if a.Context != b.Context {
		return a.Context < b.Context
	}
	if a.CodeBlock != b.CodeBlock {
		return a.CodeBlock < b.CodeBlock
	}
	if a.Statement != b.Statement {
		return a.Statement < b.Statement
	}
	return a.Initiation < b.Initiation
}

// checkActivity validates an activity's code coordinates against the
// loaded program (context numbers are validated by the context table).
func (m *Machine) checkActivity(d *sim.Dec, a token.ActivityName) bool {
	if int(a.CodeBlock) >= len(m.prog.Blocks) {
		d.Failf("activity names block %d of %d", a.CodeBlock, len(m.prog.Blocks))
		return false
	}
	if int(a.Statement) >= len(m.prog.Blocks[a.CodeBlock].Instrs) {
		d.Failf("activity names statement %d of %d in block %d",
			a.Statement, len(m.prog.Blocks[a.CodeBlock].Instrs), a.CodeBlock)
		return false
	}
	return true
}

// checkToken fails the decoder unless a token, queued or in a packet, is
// bound for one of the machine's PEs and names a statement of the program.
func (m *Machine) checkToken(d *sim.Dec, t token.Token) {
	if t.PE < 0 || t.PE >= m.cfg.PEs {
		d.Failf("token for PE %d on a %d-PE machine", t.PE, m.cfg.PEs)
		return
	}
	m.checkActivity(d, t.Tag.Activity)
}

// CheckToken implements network.TokenChecker.
func (c isCodec) CheckToken(d *sim.Dec, t token.Token) { c.m.checkToken(d, t) }

// loadToken reads a queued token (see checkToken).
func (m *Machine) loadToken(d *sim.Dec) token.Token {
	t := token.LoadToken(d)
	if d.Err() == nil {
		m.checkToken(d, t)
	}
	return t
}

// saveIDQueue writes one active list verbatim, its order and dirty flag
// included, so a restored sweep visits the same ids.
func saveIDQueue(e *sim.Enc, q *idQueue) {
	e.Len(len(q.ids))
	for _, id := range q.ids {
		e.Int(id)
	}
	e.Bool(q.dirty)
}

// loadIDQueue restores one active list, marking each member in active
// (which doubles as the duplicate check).
func (m *Machine) loadIDQueue(d *sim.Dec, q *idQueue, active []bool) error {
	q.ids = q.ids[:0]
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	for i := 0; i < n; i++ {
		id := d.Int()
		if d.Err() != nil {
			return d.Err()
		}
		if id < 0 || id >= m.cfg.PEs {
			d.Failf("active list names component %d of %d", id, m.cfg.PEs)
			return d.Err()
		}
		if active[id] {
			d.Failf("component %d listed twice", id)
			return d.Err()
		}
		active[id] = true
		q.ids = append(q.ids, id)
	}
	q.dirty = d.Bool()
	return d.Err()
}

// ctrlInstr re-derives a queued manager request's plan instruction from
// its activity name, validating that it names a d=2 manager operation.
func (m *Machine) ctrlInstr(d *sim.Dec, act token.ActivityName) *graph.CInstr {
	if !m.checkActivity(d, act) {
		return nil
	}
	in := &m.plan.Blocks[act.CodeBlock].Instrs[act.Statement]
	if in.Kind != graph.KindGetContext && in.Kind != graph.KindAllocate {
		d.Failf("queued manager request names %s at %s", in.Op, act)
		return nil
	}
	return in
}

// savePE appends one PE's dynamic state.
func (pe *PE) savePE(e *sim.Enc, pc isCodec) {
	sim.SaveFIFO(e, &pe.input, token.SaveToken)

	// Waiting-matching store in activity-name order. Each resident
	// activity holds exactly one operand, so only whether it arrived on
	// port 0, and its value, are written.
	type waitEnt struct {
		k    token.ActivityName
		port uint8
		v    token.Value
	}
	ents := make([]waitEnt, 0, pe.waiting.Len())
	pe.waiting.Each(func(k token.ActivityName, port uint8, v token.Value) {
		ents = append(ents, waitEnt{k, port, v})
	})
	sort.Slice(ents, func(i, j int) bool { return activityLess(ents[i].k, ents[j].k) })
	e.Len(len(ents))
	for _, en := range ents {
		token.SaveActivity(e, en.k)
		e.Bool(en.port == 0)
		token.SaveValue(e, en.v)
	}

	sim.SaveFIFO(e, &pe.ready, func(e *sim.Enc, en enabledInstr) {
		token.SaveActivity(e, en.act)
		token.SaveValue(e, en.vals[0])
		token.SaveValue(e, en.vals[1])
	})
	e.Int(pe.aluN)
	e.Cycle(pe.aluBusyUntil)
	e.Cycle(pe.ctrlBusyUntil)
	e.Cycle(pe.matchBusyUntil)
	e.Cycle(pe.lastStep)
	sim.SaveFIFO(e, &pe.outQ, token.SaveToken)
	sim.SaveFIFO(e, &pe.netRetry, func(e *sim.Enc, p *network.Packet) {
		network.SavePacket(e, p, pc)
	})
	sim.SaveFIFO(e, &pe.ctrlQ, func(e *sim.Enc, r ctrlRequest) {
		token.SaveActivity(e, r.act)
		token.SaveValue(e, r.value)
	})

	pe.stats.ALU.Save(e)
	pe.stats.Fired.Save(e)
	pe.stats.TokensD0.Save(e)
	pe.stats.TokensD1.Save(e)
	pe.stats.TokensD2.Save(e)
	pe.stats.Matches.Save(e)
	pe.stats.MatchStoreOccupancy.Save(e)
	pe.stats.NetSends.Save(e)
	pe.stats.LocalBypass.Save(e)
	pe.stats.Overflows.Save(e)
	pe.stats.Stalls.Save(e)
}

// loadPE restores one PE.
func (pe *PE) loadPE(d *sim.Dec, pc isCodec) error {
	m := pe.m
	if err := sim.LoadFIFO(d, &pe.input, d.Remaining(), m.loadToken); err != nil {
		return err
	}

	pe.waiting = graph.MatchTable{}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	var prev token.ActivityName
	for i := 0; i < n; i++ {
		k := token.LoadActivity(d)
		port0 := d.Bool()
		v := token.LoadValue(d)
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && !activityLess(prev, k) {
			d.Failf("waiting store entry %s out of order", k)
			return d.Err()
		}
		prev = k
		if !m.checkActivity(d, k) {
			return d.Err()
		}
		// Strictly ascending keys are distinct, so every entry parks.
		port := uint8(1)
		if port0 {
			port = 0
		}
		pe.waiting.Match(k, port, v)
	}

	if err := sim.LoadFIFO(d, &pe.ready, d.Remaining(), func(d *sim.Dec) enabledInstr {
		var en enabledInstr
		en.act = token.LoadActivity(d)
		en.vals[0] = token.LoadValue(d)
		en.vals[1] = token.LoadValue(d)
		m.checkActivity(d, en.act)
		return en
	}); err != nil {
		return err
	}
	pe.aluN = d.Int()
	if d.Err() == nil && (pe.aluN < 0 || pe.aluN > pe.ready.Len() || pe.aluN > aluQueueDepth) {
		d.Failf("ALU operand count %d with %d enabled instructions", pe.aluN, pe.ready.Len())
		return d.Err()
	}
	pe.aluBusyUntil = d.Cycle()
	pe.ctrlBusyUntil = d.Cycle()
	pe.matchBusyUntil = d.Cycle()
	pe.lastStep = d.Cycle()
	if d.Err() == nil && max(pe.aluBusyUntil, pe.ctrlBusyUntil, pe.matchBusyUntil) == sim.Never {
		// nextWork answers sim.Never only for a PE with empty queues.
		d.Failf("PE %d busy until the never cycle", pe.id)
		return d.Err()
	}
	if err := sim.LoadFIFO(d, &pe.outQ, d.Remaining(), m.loadToken); err != nil {
		return err
	}
	if err := sim.LoadFIFO(d, &pe.netRetry, d.Remaining(), func(d *sim.Dec) *network.Packet {
		return network.LoadPacket(d, pc, m.cfg.PEs)
	}); err != nil {
		return err
	}
	if err := sim.LoadFIFO(d, &pe.ctrlQ, d.Remaining(), func(d *sim.Dec) ctrlRequest {
		r := ctrlRequest{act: token.LoadActivity(d), value: token.LoadValue(d)}
		if d.Err() == nil {
			r.in = m.ctrlInstr(d, r.act)
		}
		return r
	}); err != nil {
		return err
	}

	pe.stats.ALU.Load(d)
	pe.stats.Fired.Load(d)
	pe.stats.TokensD0.Load(d)
	pe.stats.TokensD1.Load(d)
	pe.stats.TokensD2.Load(d)
	pe.stats.Matches.Load(d)
	pe.stats.MatchStoreOccupancy.Load(d)
	pe.stats.NetSends.Load(d)
	pe.stats.LocalBypass.Load(d)
	pe.stats.Overflows.Load(d)
	pe.stats.Stalls.Load(d)
	return d.Err()
}

// SaveState appends the whole machine's dynamic state (sim.Stateful).
func (m *Machine) SaveState(e *sim.Enc) {
	if m.runErr != nil {
		panic(fmt.Sprintf("core: checkpoint of a faulted machine: %v", m.runErr))
	}
	e.Tag("ttda", 2)
	m.engine.SaveState(e)
	e.Bool(m.started)
	e.Cycle(m.runStart)
	e.U64(m.stats.Cycles)
	e.U64(m.stats.ISResponses)

	// Context manager. nextCtx == len(ctxs) always (allocCtx appends), so
	// one count covers both; a record's return destinations are re-derived
	// from the GET-CONTEXT instruction its parent activity names.
	e.U32(uint32(m.nextCtx))
	for _, rec := range m.ctxs[1:] {
		e.Bool(rec != nil)
		if rec == nil {
			continue
		}
		e.U16(uint16(rec.Block))
		token.SaveActivity(e, rec.Parent)
		e.Int(rec.ArgsSent)
		e.Bool(rec.Returned)
	}
	e.U64(m.ctxFreed)
	e.Int(m.ctxPeak)
	e.U32(m.nextAddr)
	e.Len(len(m.results))
	for _, v := range m.results {
		token.SaveValue(e, v)
	}

	// Scheduler state: the driver's cached sweep answers are what its
	// NextEvent reports, so they are state, not cache.
	e.Cycle(m.drv.isNext)
	e.Cycle(m.drv.peNext)
	saveIDQueue(e, &m.isQ)
	saveIDQueue(e, &m.peQ)

	pc := isCodec{m: m}
	m.net.(network.Checkpointable).SaveTo(e, pc)
	e.Len(len(m.pes))
	for _, pe := range m.pes {
		pe.savePE(e, pc)
	}
	e.Len(len(m.is))
	for _, mod := range m.is {
		mod.SaveTo(e, pc)
	}
}

// LoadState restores the machine (sim.Stateful). On error the machine must
// be discarded.
func (m *Machine) LoadState(d *sim.Dec) error {
	if m.planErr != nil {
		return m.planErr
	}
	if err := d.Tag("ttda", 2); err != nil {
		return err
	}
	if err := m.engine.LoadState(d); err != nil {
		return err
	}
	m.now = m.engine.Now()
	m.started = d.Bool()
	m.runStart = d.Cycle()
	m.stats.Cycles = d.U64()
	m.stats.ISResponses = d.U64()

	nextCtx := d.U32()
	if d.Err() != nil {
		return d.Err()
	}
	if int(nextCtx) < 1 || d.Remaining() < int(nextCtx-1) {
		d.Failf("context count %d exceeds input", nextCtx)
		return d.Err()
	}
	m.nextCtx = token.Context(nextCtx)
	m.ctxs = m.ctxs[:1]
	m.ctxFree = nil
	m.ctxLive = 0
	for u := uint32(1); u < nextCtx; u++ {
		if !d.Bool() {
			m.ctxs = append(m.ctxs, nil)
			continue
		}
		rec := &graph.Invocation{
			Block:  graph.BlockID(d.U16()),
			Parent: token.LoadActivity(d),
		}
		rec.ArgsSent = d.Int()
		rec.Returned = d.Bool()
		if d.Err() != nil {
			return d.Err()
		}
		if int(rec.Block) >= len(m.prog.Blocks) {
			d.Failf("context %d targets block %d of %d", u, rec.Block, len(m.prog.Blocks))
			return d.Err()
		}
		if !m.checkActivity(d, rec.Parent) {
			return d.Err()
		}
		in := &m.plan.Blocks[rec.Parent.CodeBlock].Instrs[rec.Parent.Statement]
		if in.Kind != graph.KindGetContext {
			d.Failf("context %d parent %s is %s, not GET-CONTEXT", u, rec.Parent, in.Op)
			return d.Err()
		}
		rec.ReturnDests = in.RetDests
		m.ctxs = append(m.ctxs, rec)
		m.ctxLive++
	}
	m.ctxFreed = d.U64()
	m.ctxPeak = d.Int()
	if d.Err() == nil && m.ctxPeak < m.ctxLive {
		d.Failf("context peak %d below live count %d", m.ctxPeak, m.ctxLive)
		return d.Err()
	}
	m.nextAddr = d.U32()
	if d.Err() == nil && m.nextAddr > m.isLimit {
		d.Failf("allocator at %d past limit %d", m.nextAddr, m.isLimit)
		return d.Err()
	}
	n := d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	m.results = m.results[:0]
	for i := 0; i < n && d.Err() == nil; i++ {
		m.results = append(m.results, token.LoadValue(d))
	}
	if d.Err() != nil {
		return d.Err()
	}

	for i := range m.peActive {
		m.peActive[i] = false
		m.isActive[i] = false
	}
	m.drv.isNext = d.Cycle()
	m.drv.peNext = d.Cycle()
	if err := m.loadIDQueue(d, &m.isQ, m.isActive); err != nil {
		return err
	}
	if err := m.loadIDQueue(d, &m.peQ, m.peActive); err != nil {
		return err
	}

	pc := isCodec{m: m}
	if err := m.net.(network.Checkpointable).LoadFrom(d, pc); err != nil {
		return err
	}
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.pes) {
		d.Failf("checkpoint has %d PEs, machine has %d", n, len(m.pes))
		return d.Err()
	}
	for _, pe := range m.pes {
		if err := pe.loadPE(d, pc); err != nil {
			return err
		}
	}
	n = d.Len(d.Remaining())
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(m.is) {
		d.Failf("checkpoint has %d I-structure modules, machine has %d", n, len(m.is))
		return d.Err()
	}
	for _, mod := range m.is {
		if err := mod.LoadFrom(d, pc); err != nil {
			return err
		}
	}
	return d.Err()
}

var _ sim.Stateful = (*Machine)(nil)
