// Package ultra models the NYU Ultracomputer (Section 1.2.3): n blocking
// processors connected to n memory modules through an omega network whose
// switches combine FETCH-AND-ADD requests to the same address. Combining
// removes the hot-spot serial bottleneck at the memory module, at the cost
// of adders and decombine state in every switch — "one memory reference
// may involve as many as log2 n additions, and implies substantial
// hardware complexity".
package ultra

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/vn"
)

// Config sizes the machine.
type Config struct {
	// LogProcessors is log2 of the processor (and memory module) count.
	LogProcessors int
	// Combining enables switch-level FETCH-AND-ADD combining.
	Combining bool
	// BankService is the memory-module occupancy per request.
	BankService sim.Cycle
	// QueueCap bounds each switch queue.
	QueueCap int
	// ContextsPerCore gives each processor k hardware contexts.
	ContextsPerCore int
	// Shards > 1 runs the processors on the conservative parallel kernel
	// (sim.ParallelEngine), bit-identical to the sequential engine.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.LogProcessors == 0 {
		c.LogProcessors = 4
	}
	if c.BankService == 0 {
		c.BankService = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8
	}
	if c.ContextsPerCore == 0 {
		c.ContextsPerCore = 1
	}
	return c
}

// faaReq is a combinable FETCH-AND-ADD request payload. ref names the
// continuation alongside the live done closure so in-flight requests can
// be checkpointed and rebound on restore.
type faaReq struct {
	addr  uint32
	delta vn.Word
	done  func(vn.Word)
	ref   vn.DoneRef
}

// reply carries a completed operation's value back to its continuation.
type reply struct {
	val  vn.Word
	done func(vn.Word)
	ref  vn.DoneRef
}

// CombineKey combines only with requests for the same address.
func (f faaReq) CombineKey() (uint64, bool) { return uint64(f.addr), true }

// faaSplit is the decombine record for a merged FETCH-AND-ADD: the queued
// requester receives the fetched value v; the arrival receives v+delta. It
// is plain data (network.Splitter) so a pending decombine survives a
// checkpoint.
type faaSplit struct {
	delta     vn.Word
	first     func(vn.Word)
	second    func(vn.Word)
	firstRef  vn.DoneRef
	secondRef vn.DoneRef
}

// Split applies the Ultracomputer's serialization semantics to a reply.
func (s faaSplit) Split(r interface{}) (interface{}, interface{}) {
	v := r.(reply)
	return reply{val: v.val, done: s.first, ref: s.firstRef},
		reply{val: v.val + s.delta, done: s.second, ref: s.secondRef}
}

// Combine merges with the arriving request o. The queued request (f)
// continues forward carrying the summed delta; on the way back the switch
// splits the fetched value.
func (f faaReq) Combine(other network.Combinable) (network.Combinable, network.Splitter) {
	o := other.(faaReq)
	merged := faaReq{addr: f.addr, delta: f.delta + o.delta, done: f.done, ref: f.ref}
	return merged, faaSplit{
		delta: f.delta,
		first: f.done, firstRef: f.ref,
		second: o.done, secondRef: o.ref,
	}
}

// plainReq is a non-combinable memory operation.
type plainReq struct {
	req vn.MemRequest
}

// bank is one memory module on the omega network's memory side. The
// module is occupied for BankService cycles per request; the reply leaves
// when service completes, not at service start — the quiet stretches this
// opens in the network (request absorbed, reply not yet emitted) are what
// the engine's idle skipping exploits.
type bank struct {
	words     map[uint32]vn.Word
	queue     []*network.Packet
	busyUntil sim.Cycle
	// inService is the request being processed (present when pkt != nil);
	// its reply is emitted when service completes at busyUntil.
	inService pendingReply
	// pendingReplies holds completed replies refused by a full reverse
	// queue, retried every cycle.
	pendingReplies []pendingReply
	served         uint64
}

type pendingReply struct {
	pkt     *network.Packet
	payload interface{}
	due     sim.Cycle
}

// Machine is the assembled Ultracomputer model.
type Machine struct {
	cfg    Config
	n      int
	cores  []*vn.Core
	net    *network.Omega
	banks  []*bank
	engine sim.Driver
	// bankArr is the registered bank component, the wake target when the
	// network delivers a request into a bank queue.
	bankArr *bankArray
	// sendRetry holds injections refused by network backpressure.
	sendRetry *network.RetryQueue
}

// New builds the machine running prog on every core.
func New(cfg Config, prog *vn.Program) *Machine {
	cfg = cfg.withDefaults()
	n := 1 << cfg.LogProcessors
	m := &Machine{cfg: cfg, n: n}
	m.net = network.NewOmega(cfg.LogProcessors, cfg.QueueCap, cfg.Combining)
	m.banks = make([]*bank, n)
	for i := range m.banks {
		m.banks[i] = &bank{words: map[uint32]vn.Word{}}
	}
	m.net.SetDelivery(m.arriveAtBank)
	m.net.SetReplyDelivery(m.arriveAtCore)
	m.sendRetry = network.NewRetryQueue(m.net.Send)
	for p := 0; p < n; p++ {
		port := &cpuPort{m: m, cpu: p}
		c := vn.NewCore(prog, port, cfg.ContextsPerCore)
		c.SetSaveID(p)
		m.cores = append(m.cores, c)
	}
	m.bankArr = &bankArray{m: m}
	if cfg.Shards > 1 && n > 1 {
		par := sim.NewParallelEngine()
		m.engine = par
		par.Register(m.sendRetry)
		par.Register(m.net)
		par.Register(m.bankArr)
		vn.ShardCores(par, m.cores, cfg.Shards, vn.FabricLookahead(m.net))
	} else {
		eng := sim.NewEngine()
		m.engine = eng
		eng.Register(m.sendRetry)
		eng.Register(m.net)
		eng.Register(m.bankArr)
		for _, c := range m.cores {
			eng.Register(c)
		}
	}
	return m
}

// cpuPort adapts a core's memory interface to omega packets.
type cpuPort struct {
	m   *Machine
	cpu int
}

// Request injects the operation toward its memory module; address a lives
// on module a mod n.
func (p *cpuPort) Request(r vn.MemRequest) {
	dst := int(r.Addr) % p.m.n
	var payload interface{}
	if r.Op == vn.MemFetchAdd {
		payload = faaReq{addr: r.Addr, delta: r.Value, done: r.Done, ref: r.Ref}
	} else {
		payload = plainReq{req: r}
	}
	pkt := p.m.net.AcquirePacket()
	pkt.Src, pkt.Dst, pkt.Payload = p.cpu, dst, payload
	p.m.sendRetry.Send(pkt)
}

// arriveAtBank queues a request at its memory module and wakes the bank
// component at the exact cycle it can act on the arrival.
func (m *Machine) arriveAtBank(p *network.Packet) {
	m.banks[p.Dst].queue = append(m.banks[p.Dst].queue, p)
	if t := m.bankArr.NextEvent(m.engine.Now()); t != sim.Never {
		m.engine.Wake(m.bankArr, t)
	}
}

// arriveAtCore completes a memory operation at the issuing processor and
// recycles the reply packet.
func (m *Machine) arriveAtCore(p *network.Packet) {
	r := p.Payload.(reply)
	m.net.ReleasePacket(p)
	if r.done != nil {
		r.done(r.val)
	}
}

// stepBank emits replies whose service completed, retries refused replies,
// and begins servicing the next queued request once the module is free.
func (m *Machine) stepBank(b *bank, now sim.Cycle) {
	if b.inService.pkt != nil && now >= b.inService.due {
		pr := b.inService
		b.inService = pendingReply{}
		if !m.net.Reply(pr.pkt, pr.payload) {
			b.pendingReplies = append(b.pendingReplies, pr)
		}
	}
	if len(b.pendingReplies) > 0 {
		rest := b.pendingReplies[:0]
		for _, pr := range b.pendingReplies {
			if !m.net.Reply(pr.pkt, pr.payload) {
				rest = append(rest, pr)
			}
		}
		b.pendingReplies = rest
	}
	if now < b.busyUntil || len(b.queue) == 0 || b.inService.pkt != nil {
		return
	}
	pkt := b.queue[0]
	copy(b.queue, b.queue[1:])
	b.queue = b.queue[:len(b.queue)-1]
	b.busyUntil = now + m.cfg.BankService
	b.served++
	var payload interface{}
	switch req := pkt.Payload.(type) {
	case faaReq:
		old := b.words[req.addr]
		b.words[req.addr] = old + req.delta
		payload = reply{val: old, done: req.done, ref: req.ref}
	case plainReq:
		r := req.req
		var v vn.Word
		switch r.Op {
		case vn.MemRead:
			v = b.words[r.Addr]
		case vn.MemWrite:
			b.words[r.Addr] = r.Value
		case vn.MemTestSet:
			v = b.words[r.Addr]
			b.words[r.Addr] = 1
		case vn.MemFetchAdd:
			v = b.words[r.Addr]
			b.words[r.Addr] = v + r.Value
		}
		payload = reply{val: v, done: r.Done, ref: r.Ref}
	default:
		panic(fmt.Sprintf("ultra: unknown bank payload %T", pkt.Payload))
	}
	b.inService = pendingReply{pkt: pkt, payload: payload, due: b.busyUntil}
}

// bankArray steps every memory module in index order as one engine
// component, reporting the earliest cycle any module can act.
type bankArray struct{ m *Machine }

func (a *bankArray) Step(now sim.Cycle) {
	for _, b := range a.m.banks {
		a.m.stepBank(b, now)
	}
}

func (a *bankArray) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	for _, b := range a.m.banks {
		if len(b.pendingReplies) > 0 {
			return now
		}
		if b.inService.pkt != nil {
			t := b.inService.due
			if t < now {
				t = now
			}
			if t < next {
				next = t
			}
		}
		if len(b.queue) > 0 {
			t := b.busyUntil
			if t < now {
				t = now
			}
			if t < next {
				next = t
			}
		}
	}
	return next
}

// Halted reports whether every core halted.
func (m *Machine) Halted() bool {
	for _, c := range m.cores {
		if !c.Halted() {
			return false
		}
	}
	return true
}

// busy reports outstanding traffic anywhere in the memory system.
func (m *Machine) busy() bool {
	if m.net.Pending() > 0 || m.sendRetry.Len() > 0 {
		return true
	}
	for _, b := range m.banks {
		if len(b.queue) > 0 || b.inService.pkt != nil || len(b.pendingReplies) > 0 {
			return true
		}
	}
	return false
}

// Run drives the shared engine until every core halts and traffic drains.
func (m *Machine) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := m.engine.Run(func() bool {
		return m.Halted() && !m.busy()
	}, limit)
	if !ok {
		return elapsed, fmt.Errorf("ultra: did not halt within %d cycles", limit)
	}
	return elapsed, nil
}

// Core returns processor p.
func (m *Machine) Core(p int) *vn.Core { return m.cores[p] }

// NumProcessors returns n.
func (m *Machine) NumProcessors() int { return m.n }

// Poke writes a global address directly.
func (m *Machine) Poke(addr uint32, v vn.Word) { m.banks[int(addr)%m.n].words[addr] = v }

// Peek reads a global address directly.
func (m *Machine) Peek(addr uint32) vn.Word { return m.banks[int(addr)%m.n].words[addr] }

// BankServed returns how many requests memory module b processed — the
// hot-spot serialization count combining is meant to reduce.
func (m *Machine) BankServed(b int) uint64 { return m.banks[b].served }

// Network exposes the omega network for statistics.
func (m *Machine) Network() *network.Omega { return m.net }

// Engine exposes the simulation engine (scheduling counters).
func (m *Machine) Engine() sim.Driver { return m.engine }

// WorkerSteps reports per-shard step counts, in shard order (nil when
// sequential).
func (m *Machine) WorkerSteps() []uint64 {
	if par, ok := m.engine.(*sim.ParallelEngine); ok {
		return par.WorkerSteps()
	}
	return nil
}
