package emulator

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/token"
)

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

// handleIS services an I-structure request at the owning node.
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
	nd.send(message{dst: t.PE, tok: t})
}

// send originates m at this node's switch, counting its shortest route:
// the Hamming distance from this node to its destination.
func (nd *node) send(m message) {
	nd.f.shortest += uint64(bits.OnesCount(uint(nd.id ^ m.dst)))
	nd.f.post(nd.id, m)
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
		u := f.nextCtx
		if uint64(u) > graph.ContextBudget {
			f.fail(fmt.Errorf("emulator: get-context at %s: context space exhausted (%d contexts, limit %d)", act, u, graph.ContextBudget))
			return
		}
		f.nextCtx++
		f.ctxs[u] = graph.Invocation{Block: in.Target, Parent: act, ReturnDests: in.RetDests}
		nd.sendToDests(act, in.Dests, token.Int(int64(u)), act.Initiation)
	case graph.KindSendArg:
		h, err := vals[0].AsInt()
		if err != nil {
			f.fail(fmt.Errorf("emulator: %s handle at %s: %v", in.Op, act, err))
			return
		}
		u, ok := graph.ContextHandle(h)
		rec, live := f.ctxs[u]
		if !ok || !live {
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context %d", in.Op, act, h))
			return
		}
		callee := f.cg.Block(rec.Block)
		if int(in.ArgIndex) >= len(callee.Entries) {
			f.fail(fmt.Errorf("emulator: %s at %s: arg %d exceeds %q entries", in.Op, act, in.ArgIndex, callee.Name))
			return
		}
		rec.ArgsSent++
		f.settleCtx(u, rec)
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
			f.results = append(f.results, vals[0])
			return
		}
		rec, ok := f.ctxs[act.Context]
		if !ok {
			f.fail(fmt.Errorf("emulator: %s at %s: unknown context", in.Op, act))
			return
		}
		rec.Returned = true
		f.settleCtx(act.Context, rec)
		for _, d := range rec.ReturnDests {
			nd.emit(token.ActivityName{
				Context:    rec.Parent.Context,
				CodeBlock:  rec.Parent.CodeBlock,
				Statement:  d.Stmt,
				Initiation: rec.Parent.Initiation,
			}, d.NT, d.Port, vals[0])
		}
	case graph.KindAllocate:
		base := f.nextAddr
		n, err := graph.AllocSize(vals[0], base)
		if err != nil {
			f.fail(fmt.Errorf("emulator: allocate at %s: %v", act, err))
			return
		}
		f.nextAddr += n
		nd.sendToDests(act, in.Dests, token.NewRef(token.Ref{Base: base, Len: n}), act.Initiation)
	case graph.KindFetch:
		addr, ok := graph.CellAddr(vals[0], f.nextAddr)
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
		nd.send(message{dst: f.homeModule(addr), isReq: &isRequest{addr: addr, reply: rt}})
	case graph.KindStore:
		addr, ok := graph.CellAddr(vals[0], f.nextAddr)
		if !ok {
			f.fail(fmt.Errorf("emulator: store at %s: bad address %s", act, vals[0]))
			return
		}
		nd.send(message{dst: f.homeModule(addr), isReq: &isRequest{write: true, addr: addr, value: vals[1]}})
	case graph.KindSink, graph.KindNop:
		// absorbed
	default:
		f.fail(fmt.Errorf("emulator: cannot execute %s", in.Op))
	}
}
