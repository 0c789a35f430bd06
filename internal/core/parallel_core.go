package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
)

// This file is the TTDA's conservative-parallel port: with Config.Shards >
// 1 the machine runs on sim.ParallelEngine, its PEs and their co-located
// I-structure modules partitioned into contiguous shards, each stepped as
// one shard runner.
//
// Why the partition is (PE i, module i) pairs: every same-cycle effect in
// the sequential sweep is local to such a pair. A module's FETCH response
// goes into its own PE's output queue (isRespond), and a PE's local d=1
// bypass reaches only its own module (emitIS fires it only when homeModule
// == pe.id). Each shard runner therefore replays the sequential order —
// its modules first, then its PEs — and observes exactly the state the
// sequential sweep would have shown it.
//
// Everything that crosses shard (or machine-global) state is appended to
// the shard's deferred-op log instead of applied: network sends and
// retries, d=2 manager operations (context allocation reads and writes the
// shared context table and must preserve the exact nextCtx/ctxPeak
// sequence), SEND-ARG and RETURN (they mutate shared invocation records),
// program results, and execution faults. The commit phase drains the logs
// in ascending shard order; shards own ascending contiguous PE ranges, so
// the drain applies every global effect in exactly the order the
// sequential sweep produced it — the bit-identity argument. Deferring is
// sound because none of these effects can reach another shard within the
// same cycle: tokens and requests travel through the network (lookahead >=
// 1) or through queues their consumer polls no earlier than the next
// cycle.
type coreShard struct {
	m  *Machine
	id int

	peQ idQueue
	isQ idQueue

	// isNext/peNext cache the sweeps' next-event answers, exactly as the
	// sequential machineDriver does. wakeIS folds a mid-step module wake
	// (a PE's local d=1 bypass after the module sweep already ran) into
	// isNext so the runner's NextEvent stays honest.
	isNext sim.Cycle
	peNext sim.Cycle

	// inStep is true while this shard is inside Step: wakes of its own
	// PEs and modules then skip the engine, whose Wake is forbidden in the
	// runner phase (see wakePE and wakeIS).
	inStep bool

	// now is the shard's local clock: the tick currently being stepped.
	// Inside a multi-tick epoch window it runs ahead of the machine's
	// global clock (which only the serial net driver advances), so every
	// in-step consumer of "the current cycle" — op tick stamps, the
	// wakeIS next-cycle fold — reads it instead of m.now.
	now sim.Cycle

	// Deferred cross-shard effects, drained at the epoch's commit.
	ops []shardOp
	// busyMax accumulates the shard's busy-horizon contributions; folded
	// into the engine at commit.
	busyMax sim.Cycle
	// isResponses counts FETCH responses this shard's modules issued;
	// folded into MachineStats at commit (the global order of a counter
	// increment is immaterial).
	isResponses uint64
}

type opKind uint8

const (
	// opNetRetry replays the PE's refused-send retry loop (in-order, stop
	// at first refusal) against the real network.
	opNetRetry opKind = iota
	// opNetSend injects one packet, routing a refusal to the PE's retry
	// queue.
	opNetSend
	// opCtrl executes a d=2 manager request (GET-CONTEXT, ALLOCATE).
	opCtrl
	// opExec executes a deferred ALU case that touches the shared context
	// table (SEND-ARG/L, RETURN/L⁻¹).
	opExec
	// opFail records an execution fault.
	opFail
)

// shardOp is one deferred global effect. One struct with a kind tag keeps
// the log a single flat slice (no per-op allocation); opCtrl reuses the
// in/act/vals fields for its ctrlRequest payload rather than embedding a
// second copy of them, keeping the struct (copied on every push) small.
type shardOp struct {
	kind opKind
	// tick is the local cycle the op was produced at. In per-tick epochs
	// every logged op carries the current tick; inside a window the stamp
	// selects which commit slot drains the op, keeping the global replay
	// in exact (tick, shard) order.
	tick sim.Cycle
	pe   *PE
	pkt  *network.Packet
	// in names the deferred instruction for opCtrl/opExec.
	in   *graph.CInstr
	act  token.ActivityName
	vals [2]token.Value
	err  error
}

func (sh *coreShard) push(op shardOp) {
	op.tick = sh.now
	sh.ops = append(sh.ops, op)
}

// Step runs the shard's slice of the sequential sweep: modules in
// ascending id order, then PEs in ascending id order.
func (sh *coreShard) Step(now sim.Cycle) {
	sh.inStep = true
	sh.now = now
	sh.isNext = sh.m.sweepISQ(now, &sh.isQ)
	sh.peNext = sh.m.sweepPEsQ(now, &sh.peQ)
	sh.inStep = false
}

// StepWindow implements sim.WindowRunner: the shard advances its own
// timeline through the window, stepping exactly the ticks its next-event
// answer makes due (the same ticks the per-tick engine would have stepped
// it at) and halting immediately after any tick that deferred ops — its
// own state past that tick could depend on their commit (a manager reply
// token lands in a PE's input queue at commit, a refused send re-wakes the
// PE), so the engine replays the commit with the clock rewound and
// resumes the shard from its frontier.
func (sh *coreShard) StepWindow(from, until sim.Cycle, stepped []bool, base sim.Cycle) (last, next sim.Cycle, dirty bool, steps uint64) {
	t := from
	for {
		stepped[t-base] = true
		steps++
		last = t
		sh.Step(t)
		if len(sh.ops) > 0 {
			return last, sim.Never, true, steps
		}
		nx := sh.isNext
		if sh.peNext < nx {
			nx = sh.peNext
		}
		if nx >= until {
			return last, nx, false, steps
		}
		t = nx
	}
}

// NextEvent reports the earliest future cycle any shard member can act.
// Commit-time arrivals are covered separately: wakePE/wakeIS issue an
// explicit engine wake from serial contexts, and the engine keeps the
// earliest of the two arms.
func (sh *coreShard) NextEvent(now sim.Cycle) sim.Cycle {
	next := sh.isNext
	if sh.peNext < next {
		next = sh.peNext
	}
	return next
}

// netDriver is the parallel machine's single serial component: it pins
// machine time and steps the interconnect (delivery callbacks mutate PE
// and module queues directly, which is legal in the serial phase). The
// fabric itself is attached through a MemberWaker aimed at this driver, so
// commit-time injections re-arm it exactly as a registered fabric would.
//
// The sequential driver calls net.Step at every machine-active tick, even
// when the fabric is idle — and fabrics keep per-Step state (round-robin
// arbitration pointers) that must advance identically in both modes. The
// net driver therefore steps at every engine tick: NextEvent folds in the
// shard runners' cached next events (so it is due no later than any
// runner), and wakePE/wakeIS mirror every explicit runner wake to it.
type netDriver struct{ m *Machine }

func (d *netDriver) Step(now sim.Cycle) {
	d.m.now = now
	d.m.net.Step(now)
}

func (d *netDriver) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	if !d.m.net.Idle() {
		next = d.m.net.NextEvent(now)
	}
	if d.m.winOn {
		// Windowed mode runs on a fabric that schedules exact delivery
		// times and tolerates unstepped idle ticks (network.Windowable),
		// so the co-tick mirroring below would only pin the driver's wake
		// to the runners' — which would make every serial horizon equal
		// the runner horizon and no window could ever open.
		return next
	}
	for _, sh := range d.m.shards {
		if t := sh.NextEvent(now); t < next {
			next = t
		}
	}
	return next
}

// setupShards wires the parallel engine: the net driver as the serial
// prefix, one runner per contiguous (PE, module) span.
func (m *Machine) setupShards(shards int) {
	par := sim.NewParallelEngine()
	m.par = par
	m.engine = par
	drv := &netDriver{m: m}
	m.netDrv = drv
	par.Register(drv)
	if w, ok := m.net.(sim.Wakeable); ok {
		w.Attach(sim.MemberWaker{Eng: par, Runner: drv})
	}
	lookahead := sim.Cycle(1)
	if lh, ok := m.net.(network.Lookaheader); ok {
		lookahead = lh.Lookahead()
	}
	spans, err := sim.PlanShardsLookahead(m.cfg.PEs, shards, lookahead)
	if err != nil {
		panic(err)
	}
	m.shardOf = make([]int, m.cfg.PEs)
	for si, sp := range spans {
		sh := &coreShard{m: m, id: si, isNext: sim.Never, peNext: sim.Never}
		for id := sp.Lo; id < sp.Hi; id++ {
			m.shardOf[id] = si
			m.pes[id].sh = sh
		}
		m.shards = append(m.shards, sh)
		par.RegisterShard(sh)
	}
	par.OnCommit(m.commitOps)
	// Multi-tick epoch windows: only fabrics that schedule exact delivery
	// times can be left unstepped across a window, so the opt-in is gated
	// on the fabric declaring itself Windowable. Per-tick otherwise.
	if w, ok := m.net.(network.Windowable); ok && m.cfg.EpochWindow != 0 && m.cfg.EpochWindow != 1 {
		cap := sim.Cycle(m.cfg.EpochWindow)
		if m.cfg.EpochWindow < 0 {
			cap = 0 // adaptive: bounded only by the horizon rule
		}
		par.EnableWindows(w.WindowLookahead(), cap)
		m.winOn = true
	}
}

// commitOps drains every shard's deferred-op log in ascending shard order
// — the epoch commit that makes the sharded run bit-identical to the
// sequential sweep. Only ops produced at or before now are drained: in
// per-tick epochs that is the whole log; inside a multi-tick window the
// engine replays one production tick per call (clock rewound to it), and
// the dirty-stop protocol guarantees a shard's log never mixes ticks.
func (m *Machine) commitOps(now sim.Cycle) {
	for _, sh := range m.shards {
		if sh.isResponses != 0 {
			m.stats.ISResponses += sh.isResponses
			sh.isResponses = 0
		}
		if sh.busyMax > 0 {
			m.engine.NoteBusy(sh.busyMax)
		}
		ops := sh.ops
		n := 0
		for n < len(ops) && ops[n].tick <= now {
			n++
		}
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			m.applyOp(&ops[i])
			ops[i] = shardOp{} // drop packet/error references
		}
		if n == len(ops) {
			sh.ops = ops[:0]
		} else {
			rem := copy(ops, ops[n:])
			for i := rem; i < len(ops); i++ {
				ops[i] = shardOp{}
			}
			sh.ops = ops[:rem]
		}
	}
}

func (m *Machine) applyOp(op *shardOp) {
	pe := op.pe
	switch op.kind {
	case opNetRetry:
		for pe.netRetry.Len() > 0 {
			if !m.net.Send(pe.netRetry.Peek()) {
				return
			}
			pe.netRetry.Pop()
			pe.stats.NetSends.Inc()
		}
	case opNetSend:
		if !m.net.Send(op.pkt) {
			pe.netRetry.Push(op.pkt)
			m.wakePE(pe.id)
			return
		}
		pe.stats.NetSends.Inc()
	case opCtrl:
		pe.execCtrl(ctrlRequest{act: op.act, in: op.in, value: op.vals[0]})
	case opExec:
		if op.in.Kind == graph.KindSendArg {
			pe.execSendArg(op.in, op.act, op.vals)
		} else {
			pe.execReturn(op.in, op.act, op.vals)
		}
	case opFail:
		m.fail(op.err)
	default:
		panic(fmt.Sprintf("core: unknown shard op %d", op.kind))
	}
}
