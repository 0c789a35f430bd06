package emulator

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/token"
)

// loop is one PE+switch module's goroutine: take the next message off the
// switch queue, forward it if it belongs elsewhere, interpret it locally
// otherwise. Exits when the facility finishes.
func (nd *node) loop() {
	for {
		nd.mu.Lock()
		for nd.queue.Empty() && !nd.stop {
			nd.cond.Wait()
		}
		if nd.stop {
			nd.mu.Unlock()
			return
		}
		m := nd.queue.Pop() // Pop clears the slot, Drop would not: a message can hold an *isRequest
		nd.mu.Unlock()

		nd.handle(m)
		// the unit is released only after all child messages were posted
		if nd.f.units.Add(-1) == 0 {
			nd.f.finish()
		}
	}
}

// handle forwards or locally processes one message.
func (nd *node) handle(m message) {
	if m.dst != nd.id {
		next := nd.f.nextHop(nd.id, m.dst)
		if next < 0 {
			nd.f.fail(fmt.Errorf("emulator: node %d cannot route to %d (partitioned or disconnected)", nd.id, m.dst))
			return
		}
		m.hops++
		nd.f.Forwarded.Add(1)
		nd.f.Hops.Add(1)
		nd.f.post(next, m)
		return
	}
	nd.processed++
	if m.isReq != nil {
		nd.handleIS(m.isReq)
		return
	}
	nd.deliverToken(m.tok)
}

// handleIS services an I-structure request at the owning node. Cells are
// owned exclusively by this goroutine: presence bits and deferred lists
// need no locks.
func (nd *node) handleIS(r *isRequest) {
	c := nd.cells[r.addr]
	if c == nil {
		c = &cell{}
		nd.cells[r.addr] = c
	}
	if r.write {
		if c.present {
			nd.f.fail(fmt.Errorf("emulator: double write to address %d", r.addr))
			return
		}
		c.present = true
		c.value = r.value
		for _, w := range c.waiters {
			nd.sendValue(w, r.value)
		}
		c.waiters = nil
		return
	}
	if c.present {
		nd.sendValue(r.reply, c.value)
		return
	}
	nd.f.Deferred.Add(1)
	c.waiters = append(c.waiters, r.reply)
}

// sendValue routes a fetched value to its consumer.
func (nd *node) sendValue(rt replyTag, v token.Value) {
	t := token.Token{
		Class: token.Normal,
		Tag:   token.Tag{Activity: rt.activity},
		NT:    rt.nt,
		Port:  rt.port,
		Value: v,
	}
	nd.emit(t)
}

// deliverToken runs the waiting-matching step and fires enabled
// instructions.
func (nd *node) deliverToken(t token.Token) {
	if t.NT <= 1 {
		var vals [2]token.Value
		vals[t.Port] = t.Value
		nd.fire(t.Tag.Activity, vals)
		return
	}
	key := t.Tag.Activity
	p, ok := nd.waiting[key]
	if !ok {
		p = &partial{}
		nd.waiting[key] = p
	}
	if p.have[t.Port] {
		nd.f.fail(fmt.Errorf("emulator: duplicate token at %s port %d", key, t.Port))
		return
	}
	p.vals[t.Port] = t.Value
	p.have[t.Port] = true
	if p.have[0] && p.have[1] {
		delete(nd.waiting, key)
		nd.fire(key, p.vals)
	}
}

// emit injects a token into this node's switch module; it travels hop by
// hop toward its home PE through the routing tables.
func (nd *node) emit(t token.Token) {
	t.PE = nd.f.homePE(t.Tag)
	nd.f.post(nd.id, message{dst: t.PE, tok: t})
}

// sendToDests applies the standard output-section tag transformation.
func (nd *node) sendToDests(act token.ActivityName, dests []graph.Dest, v token.Value, initiation uint32) {
	blk := nd.f.prog.Block(graph.BlockID(act.CodeBlock))
	for _, d := range dests {
		newAct := token.ActivityName{
			Context:    act.Context,
			CodeBlock:  act.CodeBlock,
			Statement:  d.Stmt,
			Initiation: initiation,
		}
		nd.emit(token.Token{
			Class: token.Normal,
			Tag:   token.Tag{Activity: newAct},
			NT:    blk.Instr(d.Stmt).NT,
			Port:  d.Port,
			Value: v,
		})
	}
}

// sendTo emits a fully-addressed token (cross-block transfers).
func (nd *node) sendTo(act token.ActivityName, blkID graph.BlockID, stmt uint16, port uint8, v token.Value) {
	blk := nd.f.prog.Block(blkID)
	nd.emit(token.Token{
		Class: token.Normal,
		Tag:   token.Tag{Activity: act},
		NT:    blk.Instr(stmt).NT,
		Port:  port,
		Value: v,
	})
}

// fire executes one enabled instruction; the case analysis matches the
// reference interpreter exactly.
func (nd *node) fire(act token.ActivityName, vals [2]token.Value) {
	f := nd.f
	f.Fired.Add(1)
	blk := f.prog.Block(graph.BlockID(act.CodeBlock))
	in := blk.Instr(act.Statement)
	if in.HasLiteral {
		vals[in.LiteralPort] = in.Literal
	}
	if in.Op.IsPure() {
		v, err := graph.Eval(in.Op, vals[0], vals[1])
		if err != nil {
			f.fail(fmt.Errorf("emulator: %v at %s %s", err, act, in.Op))
			return
		}
		nd.sendToDests(act, in.Dests, v, act.Initiation)
		return
	}
	switch in.Op {
	case graph.OpSwitch:
		c, err := vals[1].AsBool()
		if err != nil {
			f.fail(fmt.Errorf("emulator: switch control at %s: %v", act, err))
			return
		}
		if c {
			nd.sendToDests(act, in.Dests, vals[0], act.Initiation)
		} else {
			nd.sendToDests(act, in.DestsFalse, vals[0], act.Initiation)
		}
	case graph.OpGetContext:
		f.ctxMu.Lock()
		u := f.nextCtx
		f.nextCtx++
		f.ctxs[u] = &ctxRecord{
			block:       in.Target,
			parent:      act,
			parentBlock: graph.BlockID(act.CodeBlock),
			returnDests: in.ReturnDests,
		}
		f.ctxMu.Unlock()
		nd.sendToDests(act, in.Dests, token.Int(int64(u)), act.Initiation)
	case graph.OpSendArg, graph.OpL:
		h, err := vals[0].AsInt()
		if err != nil {
			f.fail(fmt.Errorf("emulator: %s handle at %s: %v", in.Op, act, err))
			return
		}
		f.ctxMu.Lock()
		rec, ok := f.ctxs[token.Context(h)]
		if ok {
			rec.argsSent++
			f.maybeFreeCtxLocked(token.Context(h), rec)
		}
		f.ctxMu.Unlock()
		if !ok {
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context %d", in.Op, act, h))
			return
		}
		callee := f.prog.Block(rec.block)
		newAct := token.ActivityName{
			Context:    token.Context(h),
			CodeBlock:  uint16(rec.block),
			Statement:  callee.Entries[in.ArgIndex],
			Initiation: 1,
		}
		nd.sendTo(newAct, rec.block, newAct.Statement, 0, vals[1])
	case graph.OpD:
		nd.sendToDests(act, in.Dests, vals[0], act.Initiation+1)
	case graph.OpDInv:
		nd.sendToDests(act, in.Dests, vals[0], 1)
	case graph.OpReturn, graph.OpLInv:
		if act.Context == 0 {
			f.resMu.Lock()
			f.results = append(f.results, vals[0])
			f.resMu.Unlock()
			return
		}
		f.ctxMu.Lock()
		rec, ok := f.ctxs[act.Context]
		if ok {
			rec.returned = true
			f.maybeFreeCtxLocked(act.Context, rec)
		}
		f.ctxMu.Unlock()
		if !ok {
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context", in.Op, act))
			return
		}
		for _, d := range rec.returnDests {
			newAct := token.ActivityName{
				Context:    rec.parent.Context,
				CodeBlock:  uint16(rec.parentBlock),
				Statement:  d.Stmt,
				Initiation: rec.parent.Initiation,
			}
			nd.sendTo(newAct, rec.parentBlock, d.Stmt, d.Port, vals[0])
		}
	case graph.OpAllocate:
		n, err := vals[0].AsInt()
		if err != nil || n < 0 || n > math.MaxUint32 {
			f.fail(fmt.Errorf("emulator: allocate at %s: bad size %s", act, vals[0]))
			return
		}
		f.allocMu.Lock()
		base := f.nextAddr
		if n > int64(graph.CellBudget-base) {
			f.allocMu.Unlock()
			f.fail(fmt.Errorf("emulator: allocate at %s: I-structure space exhausted (%d cells, limit %d)", act, n, graph.CellBudget))
			return
		}
		f.nextAddr += uint32(n)
		f.allocMu.Unlock()
		nd.sendToDests(act, in.Dests, token.NewRef(token.Ref{Base: base, Len: uint32(n)}), act.Initiation)
	case graph.OpFetch:
		addr, err := vals[0].AsInt()
		if err != nil || addr < 0 {
			f.fail(fmt.Errorf("emulator: fetch at %s: bad address %s", act, vals[0]))
			return
		}
		d := in.Dests[0]
		rt := replyTag{
			activity: token.ActivityName{
				Context:    act.Context,
				CodeBlock:  act.CodeBlock,
				Statement:  d.Stmt,
				Initiation: act.Initiation,
			},
			port: d.Port,
			nt:   blk.Instr(d.Stmt).NT,
		}
		home := f.homeModule(uint32(addr))
		f.post(nd.id, message{dst: home, isReq: &isRequest{addr: uint32(addr), reply: rt}})
	case graph.OpStore:
		addr, err := vals[0].AsInt()
		if err != nil || addr < 0 {
			f.fail(fmt.Errorf("emulator: store at %s: bad address %s", act, vals[0]))
			return
		}
		home := f.homeModule(uint32(addr))
		f.post(nd.id, message{dst: home, isReq: &isRequest{write: true, addr: uint32(addr), value: vals[1]}})
	case graph.OpSink, graph.OpNop:
		// absorbed
	default:
		f.fail(fmt.Errorf("emulator: cannot execute %s", in.Op))
	}
}
