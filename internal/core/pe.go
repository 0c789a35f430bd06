package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/istructure"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
)

// PE is one processing element of Figure 2-4: the input section, the
// waiting-matching section (an associative store keyed by activity name),
// the instruction-fetch unit, the ALU, the output section (tag computation
// and routing), and the PE controller for d=2 manager requests.
//
// All stage queues are ring buffers (O(1) pop, buffer reused across the
// run) and the PE participates in the machine's active-list scheduling: it
// is stepped only on cycles where nextWork says a stage can progress, with
// per-cycle statistics (stall counts, ALU occupancy, store occupancy)
// settled lazily so they stay bit-identical to per-cycle stepping.
type PE struct {
	m  *Machine
	id int

	// input queue: tokens from the network and the local bypass path
	input sim.FIFO[token.Token]

	// waiting-matching section: the associative store every
	// token-matching executor shares (graph.MatchTable).
	waiting graph.MatchTable

	// ready holds enabled instructions in pipeline order: the first aluN
	// entries have passed instruction fetch (the ALU operand queue), the
	// rest await fetch. Fetch moves a token across the boundary by
	// incrementing aluN — the transfer preserves FIFO order, so one ring
	// with a boundary count replaces two rings and the per-fetch copy of a
	// record between them.
	ready sim.FIFO[enabledInstr]
	aluN  int

	// ALU occupancy
	aluBusyUntil sim.Cycle

	// output section: result tokens awaiting tag computation/routing
	outQ sim.FIFO[token.Token]

	// outgoing network packets refused by backpressure, retried in order
	netRetry sim.FIFO[*network.Packet]

	// pktFree recycles this PE's delivered packets: gets happen on the
	// PE's own send path, puts at delivery.
	pktFree []*network.Packet

	// PE controller queue (d=2 requests)
	ctrlQ         sim.FIFO[ctrlRequest]
	ctrlBusyUntil sim.Cycle

	// matching-section freeze after an overflow-store access
	matchBusyUntil sim.Cycle

	// lastStep is the last cycle this PE was stepped, for settling the
	// per-cycle stall count over skipped cycles.
	lastStep sim.Cycle

	stats PEStats
}

// enabledInstr is a fully-operand-ed instruction instance.
type enabledInstr struct {
	act  token.ActivityName
	vals [2]token.Value
}

// ctrlRequest is a d=2 manager operation.
type ctrlRequest struct {
	act   token.ActivityName // the requesting instruction instance
	in    *graph.CInstr
	value token.Value // operand (allocation size, or trigger)
}

// PEStats aggregates one PE's measurements.
type PEStats struct {
	ALU metrics.Utilization
	// Fired counts instruction executions.
	Fired metrics.Counter
	// TokensIn counts tokens accepted by the input section, by class.
	TokensD0, TokensD1, TokensD2 metrics.Counter
	// Matches counts pair completions; MatchStoreOccupancy tracks the
	// associative store's load (mean/max, updated on every insert/remove).
	Matches             metrics.Counter
	MatchStoreOccupancy metrics.TimedGauge
	// NetSends counts packets this PE injected into the network.
	NetSends metrics.Counter
	// LocalBypass counts tokens that stayed on-PE.
	LocalBypass metrics.Counter
	// Overflows counts matching-store accesses that spilled past
	// MatchCapacity into the slow overflow store; Stalls counts the
	// resulting frozen cycles.
	Overflows metrics.Counter
	Stalls    metrics.Counter
}

func newPE(m *Machine, id int) *PE {
	return &PE{m: m, id: id}
}

// accept receives a token at the input section.
func (pe *PE) accept(t *token.Token) {
	*pe.input.Slot() = *t
	pe.m.wakePE(pe.id)
}

// nextWork reports the earliest cycle at or after now at which stepping
// this PE can change machine state: now when any stage can progress, a
// future busy-until cycle when every queue is gated behind an occupied
// unit, or sim.Never with no queued work. Busy-until cycles are finite, so
// the answer is sim.Never exactly when every stage queue is empty: such a
// PE needs no stepping regardless of its busy timers (the waiting store
// may hold half-matched tokens; those are checked separately at
// termination). Cycles before the answer are provably no-ops (modulo
// per-cycle statistics, which settleStalls and the ALU/occupancy
// accounting reconstruct exactly).
func (pe *PE) nextWork(now sim.Cycle) sim.Cycle {
	if pe.netRetry.Len() > 0 || pe.outQ.Len() > 0 {
		return now
	}
	next := sim.Never
	if pe.aluN > 0 {
		if pe.aluBusyUntil <= now {
			return now
		}
		next = pe.aluBusyUntil
	}
	if pe.ready.Len() > pe.aluN {
		// Fetch progresses as soon as the operand queue has room; a full
		// queue drains when the ALU next retires an instruction.
		if pe.aluN < aluQueueDepth {
			return now
		}
		if pe.aluBusyUntil < next {
			next = pe.aluBusyUntil
		}
	}
	if pe.ctrlQ.Len() > 0 {
		if pe.ctrlBusyUntil <= now {
			return now
		}
		if pe.ctrlBusyUntil < next {
			next = pe.ctrlBusyUntil
		}
	}
	if pe.input.Len() > 0 {
		if pe.matchBusyUntil <= now {
			return now
		}
		if pe.matchBusyUntil < next {
			next = pe.matchBusyUntil
		}
	}
	return next
}

// settleStalls credits the frozen-matching-section cycles a per-cycle
// stepper would have counted in (pe.lastStep, now).
func (pe *PE) settleStalls(now sim.Cycle) {
	if end := min(now, pe.matchBusyUntil); end > pe.lastStep+1 {
		pe.stats.Stalls.Add(uint64(end - pe.lastStep - 1))
	}
	pe.lastStep = now
}

// finishStats settles lazily-accounted statistics through end-of-run cycle
// now (exclusive). Idempotent for a constant now.
func (pe *PE) finishStats(now sim.Cycle) {
	pe.settleStalls(now)
	pe.stats.ALU.SetTotal(uint64(now))
	pe.stats.MatchStoreOccupancy.Finish(uint64(now))
}

// step advances the PE one cycle. Stages run in reverse pipeline order so
// work moves at most one stage per cycle.
func (pe *PE) step(now sim.Cycle) {
	pe.settleStalls(now)
	pe.stepNetRetry()
	pe.stepOutput(now)
	pe.stepALU(now)
	pe.stepFetch()
	pe.stepController(now)
	pe.stepInput(now)
}

// getPkt takes a packet from the PE's free list (or allocates one).
func (pe *PE) getPkt() *network.Packet {
	if n := len(pe.pktFree); n > 0 {
		p := pe.pktFree[n-1]
		pe.pktFree = pe.pktFree[:n-1]
		return p
	}
	return &network.Packet{}
}

// putPkt recycles a delivered packet.
func (pe *PE) putPkt(p *network.Packet) {
	p.Reset()
	pe.pktFree = append(pe.pktFree, p)
}

// sendPkt injects a packet, queueing it for in-order retry on refusal.
func (pe *PE) sendPkt(pkt *network.Packet) {
	if !pe.m.net.Send(pkt) {
		pe.netRetry.Push(pkt)
		return
	}
	pe.stats.NetSends.Inc()
}

// stepNetRetry re-attempts refused network sends in order.
func (pe *PE) stepNetRetry() {
	for pe.netRetry.Len() > 0 {
		if !pe.m.net.Send(pe.netRetry.Peek()) {
			return
		}
		pe.netRetry.Pop()
		pe.stats.NetSends.Inc()
	}
}

// stepOutput performs tag-to-route translation for up to OutputBandwidth
// tokens: local tokens loop back to the input section, remote tokens
// become network packets.
func (pe *PE) stepOutput(now sim.Cycle) {
	bw := pe.m.cfg.OutputBandwidth
	for i := 0; i < bw && pe.outQ.Len() > 0; i++ {
		t := pe.outQ.Head()
		if t.PE == pe.id {
			pe.stats.LocalBypass.Inc()
			*pe.input.Slot() = *t
		} else {
			pkt := pe.getPkt()
			pkt.Src, pkt.Dst, pkt.Tok, pkt.HasTok = pe.id, t.PE, *t, true
			pe.sendPkt(pkt)
		}
		pe.outQ.Drop() // token.Token is pointer-free
	}
}

// aluQueueDepth is the operand-queue capacity between fetch and the ALU.
const aluQueueDepth = 4

// stepALU executes one enabled instruction when the ALU is free. Busy time
// is accounted at issue (the op's full service time at once) rather than
// per cycle; paired with SetTotal at end of run this reproduces exactly
// the utilization a per-cycle busy tick would record. The instruction is
// executed where it sits at the head of the ready ring: nothing execute
// does pushes to ready, so the record stays put until the Drop.
func (pe *PE) stepALU(now sim.Cycle) {
	if now < pe.aluBusyUntil || pe.aluN == 0 {
		return
	}
	e := pe.ready.Head()
	pe.aluN--
	in := &pe.m.plan.Blocks[e.act.CodeBlock].Instrs[e.act.Statement]
	d := pe.m.opTimes[in.Op]
	pe.aluBusyUntil = now + d
	pe.m.noteBusy(pe.aluBusyUntil)
	if d == 0 {
		d = 1 // the firing cycle itself counts busy even for free ops
	}
	pe.stats.ALU.AddBusy(uint64(d))
	if pe.m.cfg.Trace != nil {
		pe.trace(TraceFire, "%s %s", in.Op, e.act)
	}
	pe.execute(in, e)
	pe.ready.Drop() // enabledInstr is pointer-free
	pe.stats.Fired.Inc()
}

// stepFetch moves one enabled instruction into the ALU operand queue (a
// boundary shift in the shared ready ring).
func (pe *PE) stepFetch() {
	if pe.ready.Len() <= pe.aluN || pe.aluN >= aluQueueDepth {
		return
	}
	pe.aluN++
}

// stepController services one d=2 manager request (context and structure
// allocation through the shared context manager and allocator).
func (pe *PE) stepController(now sim.Cycle) {
	if now < pe.ctrlBusyUntil || pe.ctrlQ.Len() == 0 {
		return
	}
	r := pe.ctrlQ.Pop()
	pe.ctrlBusyUntil = now + controllerTime
	pe.m.noteBusy(pe.ctrlBusyUntil)
	in := r.in
	switch in.Kind {
	case graph.KindGetContext:
		if n := uint64(pe.m.nextCtx); n > graph.ContextBudget {
			pe.m.fail(fmt.Errorf("core: get-context at %s: context space exhausted (%d contexts, limit %d)", r.act, n, graph.ContextBudget))
			return
		}
		u := pe.m.getContext(in.Target, r.act, in.RetDests)
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceGetCtx, "u=%d for block %d", u, in.Target)
		}
		pe.sendToDests(r.act, in.Dests, token.Int(int64(u)))
	case graph.KindAllocate:
		n, err := r.value.AsInt()
		if err != nil || n < 0 || n > math.MaxUint32 {
			pe.m.fail(fmt.Errorf("core: allocate at %s: bad size %s", r.act, r.value))
			return
		}
		base, err := pe.m.allocate(uint32(n))
		if err != nil {
			pe.m.fail(err)
			return
		}
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceAlloc, "base=%d len=%d", base, n)
		}
		pe.sendToDests(r.act, in.Dests, token.NewRef(token.Ref{Base: base, Len: uint32(n)}))
	default:
		pe.m.fail(fmt.Errorf("core: controller cannot service %s", in.Op))
	}
}

// stepInput moves up to MatchBandwidth tokens from the input queue through
// classification and the waiting-matching section. Entries beyond
// MatchCapacity spill to the (slower) overflow store: each access that
// touches overflow freezes the matching section for OverflowPenalty cycles,
// the TTDA's overflow-memory behaviour.
func (pe *PE) stepInput(now sim.Cycle) {
	if now < pe.matchBusyUntil {
		pe.stats.Stalls.Inc()
		return
	}
	bw := pe.m.cfg.MatchBandwidth
	capLimit := pe.m.cfg.MatchCapacity
	for i := 0; i < bw && pe.input.Len() > 0; i++ {
		t := pe.input.Head()
		overflowing := capLimit > 0 && pe.waiting.Len() >= capLimit && t.NT >= 2
		pe.classify(t, now)
		pe.input.Drop() // token.Token is pointer-free
		if overflowing {
			pe.stats.Overflows.Inc()
			pe.matchBusyUntil = now + overflowPenalty
			return
		}
	}
}

// overflowPenalty is the matching-section freeze when an access touches the
// overflow store instead of the associative memory.
const overflowPenalty = 4

// classify implements Figure 2-3's input-type dispatch at cycle now.
func (pe *PE) classify(t *token.Token, now sim.Cycle) {
	switch t.Class {
	case token.Normal:
		pe.stats.TokensD0.Inc()
		pe.match(t, now)
	default:
		// d=1 and d=2 tokens are generated internally and routed directly
		// at the output section; arriving here is a machine bug.
		pe.m.fail(fmt.Errorf("core: unexpected %s token at input section", t.Class))
	}
}

// match pairs tokens by activity name (associative lookup), writing each
// enabled instruction straight into its slot in the ready ring.
func (pe *PE) match(t *token.Token, now sim.Cycle) {
	if t.NT <= 1 {
		e := pe.ready.Slot()
		*e = enabledInstr{act: t.Tag.Activity}
		e.vals[t.Port] = t.Value
		return
	}
	key := t.Tag.Activity
	vals, out := pe.waiting.Match(key, t.Port, t.Value)
	switch out {
	case graph.Parked:
		pe.stats.MatchStoreOccupancy.Update(uint64(now), int64(pe.waiting.Len()))
	case graph.Matched:
		e := pe.ready.Slot()
		e.act, e.vals = key, vals
		pe.stats.MatchStoreOccupancy.Update(uint64(now), int64(pe.waiting.Len()))
		pe.stats.Matches.Inc()
	case graph.Duplicate:
		pe.m.fail(fmt.Errorf("core: duplicate token at %s port %d", key, t.Port))
	}
}

// sendToDests builds result tokens with the standard tag transformation
// (same context, same initiation, destination statement) and queues them at
// the output section. The destination's nt field rides in the plan's CDest,
// so no instruction is fetched per token.
func (pe *PE) sendToDests(act token.ActivityName, dests []graph.CDest, v token.Value) {
	pe.sendToDestsInit(act, dests, v, act.Initiation)
}

// sendToDestsInit is sendToDests with an explicit initiation number (for D
// and D⁻¹). Tag.HomePE ignores the statement, so every destination lives
// on one PE and the hash is computed once.
func (pe *PE) sendToDestsInit(act token.ActivityName, dests []graph.CDest, v token.Value, initiation uint32) {
	act.Initiation = initiation
	dst := token.Tag{Activity: act}.HomePE(pe.m.cfg.PEs)
	for _, d := range dests {
		act.Statement = d.Stmt
		pe.emit(dst, act, d.NT, d.Port, v)
	}
}

// sendToken emits a fully-formed token whose receiver nt is already known
// from the plan.
func (pe *PE) sendToken(act token.ActivityName, nt, port uint8, v token.Value) {
	pe.emit(token.Tag{Activity: act}.HomePE(pe.m.cfg.PEs), act, nt, port, v)
}

// emit builds a d=0 token for PE dst in its slot in this PE's output
// queue: local destinations bypass the network, remote ones are sent (with
// retry).
func (pe *PE) emit(dst int, act token.ActivityName, nt, port uint8, v token.Value) {
	// Written field by field: a composite literal would be built on the
	// stack first and then copied into the slot.
	t := pe.outQ.Slot()
	t.PE = dst
	t.Tag.Activity = act
	t.Class = token.Normal
	t.NT = nt
	t.Port = port
	t.Value = v
	pe.m.wakePE(pe.id)
}

// execute performs one instruction, the heart of the ALU stage. Its case
// analysis must agree exactly with the reference interpreter; it switches
// on the plan's precomputed dispatch kind. e is the record at the head of
// the ready ring, which execute may overwrite: the ALU drops it next.
func (pe *PE) execute(in *graph.CInstr, e *enabledInstr) {
	act := e.act
	vals := &e.vals
	if in.HasLit {
		vals[in.LitPort] = in.Lit
	}
	switch in.Kind {
	case graph.KindPure:
		v, err := graph.Eval(in.Op, vals[0], vals[1])
		if err != nil {
			pe.m.fail(fmt.Errorf("core: %v at %s %s", err, act, in.Op))
			return
		}
		pe.sendToDests(act, in.Dests, v)
	case graph.KindSwitch:
		c, err := vals[1].AsBool()
		if err != nil {
			pe.m.fail(fmt.Errorf("core: switch control at %s: %v", act, err))
			return
		}
		if c {
			pe.sendToDests(act, in.Dests, vals[0])
		} else {
			pe.sendToDests(act, in.DestsFalse, vals[0])
		}
	case graph.KindGetContext, graph.KindAllocate:
		// d=2: manager request to the PE controller
		pe.stats.TokensD2.Inc()
		pe.ctrlQ.Push(ctrlRequest{act: act, in: in, value: vals[0]})
	case graph.KindSendArg:
		pe.execSendArg(in, act, *vals)
	case graph.KindD:
		pe.sendToDestsInit(act, in.Dests, vals[0], act.Initiation+1)
	case graph.KindDInv:
		pe.sendToDestsInit(act, in.Dests, vals[0], 1)
	case graph.KindReturn:
		pe.execReturn(in, act, *vals)
	case graph.KindFetch:
		addr, ok := graph.CellAddr(vals[0], pe.m.nextAddr)
		if !ok {
			pe.m.fail(fmt.Errorf("core: fetch at %s: bad address %s", act, vals[0]))
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
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceISRead, "addr=%d for %s", addr, rt.activity)
		}
		pe.emitIS(isRequest{op: istructure.OpRead, addr: addr, replyTo: rt})
	case graph.KindStore:
		addr, ok := graph.CellAddr(vals[0], pe.m.nextAddr)
		if !ok {
			pe.m.fail(fmt.Errorf("core: store at %s: bad address %s", act, vals[0]))
			return
		}
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceISWrite, "addr=%d value=%s", addr, vals[1])
		}
		pe.emitIS(isRequest{op: istructure.OpWrite, addr: addr, value: vals[1]})
	case graph.KindSink, graph.KindNop:
		// absorbed
	default:
		pe.m.fail(fmt.Errorf("core: cannot execute %s", in.Op))
	}
}

// execSendArg performs SEND-ARG/L: look up the callee's invocation record,
// count the argument, and ship it to the callee's entry, whose statement
// and nt come from the plan's CBlock.
func (pe *PE) execSendArg(in *graph.CInstr, act token.ActivityName, vals [2]token.Value) {
	h, err := vals[0].AsInt()
	if err != nil {
		pe.m.fail(fmt.Errorf("core: %s handle at %s: %v", in.Op, act, err))
		return
	}
	rec := pe.m.ctxLookup(token.Context(h))
	if rec == nil {
		pe.m.fail(fmt.Errorf("core: %s at %s: unknown context %d", in.Op, act, h))
		return
	}
	callee := pe.m.plan.Block(rec.Block)
	if int(in.ArgIndex) >= len(callee.Entries) {
		pe.m.fail(fmt.Errorf("core: %s at %s: arg %d out of range", in.Op, act, in.ArgIndex))
		return
	}
	rec.ArgsSent++
	newAct := token.ActivityName{
		Context:    token.Context(h),
		CodeBlock:  uint16(rec.Block),
		Statement:  callee.Entries[in.ArgIndex],
		Initiation: 1,
	}
	nt := callee.EntryNT[in.ArgIndex]
	pe.m.maybeFreeContext(token.Context(h), rec)
	pe.sendToken(newAct, nt, 0, vals[1])
}

// execReturn performs RETURN/L⁻¹: deliver the value to the parent's return
// destinations (or the program results in context 0) and retire the
// invocation record.
func (pe *PE) execReturn(in *graph.CInstr, act token.ActivityName, vals [2]token.Value) {
	if act.Context == 0 {
		if pe.m.cfg.Trace != nil {
			pe.trace(TraceResult, "%s", vals[0])
		}
		pe.m.results = append(pe.m.results, vals[0])
		return
	}
	rec := pe.m.ctxLookup(act.Context)
	if rec == nil {
		pe.m.fail(fmt.Errorf("core: %s at %s: unknown context", in.Op, act))
		return
	}
	rec.Returned = true
	for _, d := range rec.ReturnDests {
		newAct := token.ActivityName{
			Context:    rec.Parent.Context,
			CodeBlock:  rec.Parent.CodeBlock,
			Statement:  d.Stmt,
			Initiation: rec.Parent.Initiation,
		}
		pe.sendToken(newAct, d.NT, d.Port, vals[0])
	}
	pe.m.maybeFreeContext(act.Context, rec)
}

// emitIS routes a d=1 request toward the owning I-structure module: the
// local bypass straight to this PE's own module, remote requests through
// the network.
func (pe *PE) emitIS(r isRequest) {
	pe.stats.TokensD1.Inc()
	home := pe.m.homeModule(r.addr)
	if home == pe.id {
		pe.stats.LocalBypass.Inc()
		if err := pe.m.enqueueIS(home, r); err != nil {
			pe.m.fail(err)
		}
		return
	}
	pkt := pe.getPkt()
	pkt.Src, pkt.Dst, pkt.Payload = pe.id, home, r
	pe.sendPkt(pkt)
}
