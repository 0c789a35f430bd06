package emulator

import (
	"fmt"

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
			nd.f.fail(fmt.Errorf("emulator: store: address %d already written (single-assignment violation)", r.addr))
			return
		}
		c.present = true
		c.value = r.value
		for _, w := range c.waiters {
			nd.emit(w.activity, w.nt, w.port, r.value)
		}
		c.waiters = nil
		return
	}
	if c.present {
		nd.emit(r.reply.activity, r.reply.nt, r.reply.port, c.value)
		return
	}
	c.waiters = append(c.waiters, r.reply)
}

// deliverToken runs the waiting-matching step and fires enabled
// instructions.
func (nd *node) deliverToken(t token.Token) {
	act := t.Tag.Activity
	in := &nd.f.cg.Blocks[act.CodeBlock].Instrs[act.Statement]
	if t.NT <= 1 {
		var vals [2]token.Value
		vals[t.Port] = t.Value
		nd.fire(in, act, vals)
		return
	}
	vals, out := nd.waiting.Match(act, t.Port, t.Value)
	switch out {
	case graph.Matched:
		nd.fire(in, act, vals)
	case graph.Duplicate:
		nd.f.fail(fmt.Errorf("emulator: duplicate token at %s port %d", act, t.Port))
	}
}

// emit injects a token into this node's switch module; it travels hop by
// hop toward its home PE through the routing tables.
func (nd *node) emit(act token.ActivityName, nt, port uint8, v token.Value) {
	t := token.Token{
		Class: token.Normal,
		Tag:   token.Tag{Activity: act},
		NT:    nt,
		Port:  port,
		Value: v,
	}
	t.PE = nd.f.homePE(t.Tag)
	nd.f.post(nd.id, message{dst: t.PE, tok: t})
}

// sendToDests applies the standard output-section tag transformation.
func (nd *node) sendToDests(act token.ActivityName, dests []graph.CDest, v token.Value, initiation uint32) {
	for _, d := range dests {
		nd.emit(token.ActivityName{
			Context:    act.Context,
			CodeBlock:  act.CodeBlock,
			Statement:  d.Stmt,
			Initiation: initiation,
		}, d.NT, d.Port, v)
	}
}

// fire executes one enabled instruction; the case analysis matches the
// reference interpreter exactly.
func (nd *node) fire(in *graph.CInstr, act token.ActivityName, vals [2]token.Value) {
	f := nd.f
	f.Fired.Add(1)
	if in.HasLit {
		vals[in.LitPort] = in.Lit
	}
	switch in.Kind {
	case graph.KindPure:
		v, err := graph.Eval(in.Op, vals[0], vals[1])
		if err != nil {
			f.fail(fmt.Errorf("emulator: %v at %s %s", err, act, in.Op))
			return
		}
		nd.sendToDests(act, in.Dests, v, act.Initiation)
	case graph.KindSwitch:
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
	case graph.KindGetContext:
		f.ctxMu.Lock()
		u := f.nextCtx
		if uint64(u) > graph.ContextBudget {
			f.ctxMu.Unlock()
			f.fail(fmt.Errorf("emulator: get-context at %s: context space exhausted (%d contexts, limit %d)", act, u, graph.ContextBudget))
			return
		}
		f.nextCtx++
		f.ctxs[u] = graph.Invocation{Block: in.Target, Parent: act, ReturnDests: in.RetDests}
		f.ctxMu.Unlock()
		nd.sendToDests(act, in.Dests, token.Int(int64(u)), act.Initiation)
	case graph.KindSendArg:
		h, err := vals[0].AsInt()
		if err != nil {
			f.fail(fmt.Errorf("emulator: %s handle at %s: %v", in.Op, act, err))
			return
		}
		u := token.Context(h)
		f.ctxMu.Lock()
		rec, ok := f.ctxs[u]
		callee := f.cg.Block(rec.Block)
		sent := ok && int(in.ArgIndex) < len(callee.Entries)
		if sent {
			rec.ArgsSent++
			f.settleCtxLocked(u, rec)
		}
		f.ctxMu.Unlock()
		switch {
		case !ok:
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context %d", in.Op, act, h))
			return
		case !sent:
			f.fail(fmt.Errorf("emulator: %s at %s: arg %d exceeds %q entries", in.Op, act, in.ArgIndex, callee.Name))
			return
		}
		nd.emit(token.ActivityName{
			Context:    u,
			CodeBlock:  uint16(rec.Block),
			Statement:  callee.Entries[in.ArgIndex],
			Initiation: 1,
		}, callee.EntryNT[in.ArgIndex], 0, vals[1])
	case graph.KindD:
		nd.sendToDests(act, in.Dests, vals[0], act.Initiation+1)
	case graph.KindDInv:
		nd.sendToDests(act, in.Dests, vals[0], 1)
	case graph.KindReturn:
		if act.Context == 0 {
			f.resMu.Lock()
			f.results = append(f.results, vals[0])
			f.resMu.Unlock()
			return
		}
		f.ctxMu.Lock()
		rec, ok := f.ctxs[act.Context]
		if ok {
			rec.Returned = true
			f.settleCtxLocked(act.Context, rec)
		}
		f.ctxMu.Unlock()
		if !ok {
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context", in.Op, act))
			return
		}
		for _, d := range rec.ReturnDests {
			nd.emit(token.ActivityName{
				Context:    rec.Parent.Context,
				CodeBlock:  rec.Parent.CodeBlock,
				Statement:  d.Stmt,
				Initiation: rec.Parent.Initiation,
			}, d.NT, d.Port, vals[0])
		}
	case graph.KindAllocate:
		f.allocMu.Lock()
		base := f.nextAddr
		n, err := graph.AllocSize(vals[0], base)
		if err == nil {
			f.nextAddr += n
		}
		f.allocMu.Unlock()
		if err != nil {
			f.fail(fmt.Errorf("emulator: allocate at %s: %v", act, err))
			return
		}
		nd.sendToDests(act, in.Dests, token.NewRef(token.Ref{Base: base, Len: n}), act.Initiation)
	case graph.KindFetch:
		addr, ok := graph.CellAddr(vals[0], f.allocTop())
		if !ok {
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
			nt:   d.NT,
		}
		f.post(nd.id, message{dst: f.homeModule(addr), isReq: &isRequest{addr: addr, reply: rt}})
	case graph.KindStore:
		addr, ok := graph.CellAddr(vals[0], f.allocTop())
		if !ok {
			f.fail(fmt.Errorf("emulator: store at %s: bad address %s", act, vals[0]))
			return
		}
		f.post(nd.id, message{dst: f.homeModule(addr), isReq: &isRequest{write: true, addr: addr, value: vals[1]}})
	case graph.KindSink, graph.KindNop:
		// absorbed
	default:
		f.fail(fmt.Errorf("emulator: cannot execute %s", in.Op))
	}
}
