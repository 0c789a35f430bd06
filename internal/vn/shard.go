package vn

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// This file adapts vn cores to the conservative parallel simulation
// kernel (sim.ParallelEngine). Every Section-1.2 multiprocessor model
// (C.mmp, Cm*, the Ultracomputer, HEP) has the same shape: a serial
// memory system — crossbar, omega network, buses, banks — plus an array
// of cores whose only cross-component effect is MemPort.Request. That
// makes the cores trivially shardable: a core's Step touches nothing but
// its own registers and statistics, so contiguous spans of cores can step
// independently as long as their memory requests are deferred to the
// commit phase and replayed in ascending core order — exactly the order
// the sequential engine issues them, which keeps the run bit-identical.
//
// Memory completions (ctx.done) fire inside serial components' steps or
// the commit drain, both serial contexts; the MemberWaker attached to
// each core redirects the resulting wake to the owning shard runner.

// CoreShard runs a contiguous span of cores as one parallel-kernel shard
// runner. It steps every core in ascending order — stepping a parked core
// is statistically identical to settling it lazily (parked cycles are
// activity-free), so no per-core due bookkeeping is needed.
type CoreShard struct {
	cores []*Core
	ops   []deferredReq
}

type deferredReq struct {
	port MemPort
	req  MemRequest
}

// deferringPort interposes on a core's memory port: requests issued
// during the runner phase append to the owning shard's log instead of
// touching the shared memory system.
type deferringPort struct {
	under MemPort
	sh    *CoreShard
}

func (p *deferringPort) Request(r MemRequest) {
	p.sh.ops = append(p.sh.ops, deferredReq{port: p.under, req: r})
}

// Step advances every core in the span one cycle, in ascending order.
func (sh *CoreShard) Step(now sim.Cycle) {
	for _, c := range sh.cores {
		c.Step(now)
	}
}

// NextEvent reports the earliest cycle any core in the span can act.
func (sh *CoreShard) NextEvent(now sim.Cycle) sim.Cycle {
	next := sim.Never
	for _, c := range sh.cores {
		if t := c.NextEvent(now); t < next {
			next = t
		}
	}
	return next
}

// Settle forwards engine settlement to every core in the span: a wake
// aimed at one member settles the whole shard, which is harmless — the
// other cores are between steps, so their frozen state is exactly what
// per-cycle stepping would observe.
func (sh *CoreShard) Settle(through sim.Cycle) {
	for _, c := range sh.cores {
		c.settleThrough(through)
	}
}

// ShardCores partitions cores into contiguous spans registered as shard
// runners on par, interposes the deferring memory port on every core, and
// installs the commit hook that replays deferred requests in ascending
// shard (= ascending core) order. Call it after every serial component is
// registered. lookahead is the memory system's declared cross-shard
// latency (network.Lookaheader; pass 1 for a fabric that declares none):
// the deferred-commit protocol is only sound when a request issued at
// cycle t cannot complete before t+1, so the plan rejects lookahead < 1.
// The machine's real memory ports must tolerate being called from the
// commit phase, which every sim-aware port does: Wake and SlotNow are
// legal there and carry the same slot semantics a mid-step sequential
// call sees.
func ShardCores(par *sim.ParallelEngine, cores []*Core, shards int, lookahead sim.Cycle) []*CoreShard {
	spans, err := sim.PlanShardsLookahead(len(cores), shards, lookahead)
	if err != nil {
		panic(err)
	}
	out := make([]*CoreShard, 0, len(spans))
	for _, sp := range spans {
		sh := &CoreShard{cores: cores[sp.Lo:sp.Hi]}
		for _, c := range sh.cores {
			c.mem = &deferringPort{under: c.mem, sh: sh}
			c.Attach(sim.MemberWaker{Eng: par, Runner: sh})
		}
		par.RegisterShard(sh)
		out = append(out, sh)
	}
	par.OnCommit(func(now sim.Cycle) {
		for _, sh := range out {
			ops := sh.ops
			sh.ops = ops[:0]
			for i := range ops {
				ops[i].port.Request(ops[i].req)
				ops[i] = deferredReq{}
			}
		}
	})
	return out
}

// FabricLookahead extracts a memory system's declared cross-shard latency
// for ShardCores: the fabric's Lookahead when it declares one, otherwise
// the 1-cycle floor every vn memory path honours (no request issued at
// cycle t completes before t+1 — completions fire from serial steps of
// later cycles or from the commit drain).
func FabricLookahead(fabric any) sim.Cycle {
	if lh, ok := fabric.(network.Lookaheader); ok {
		if la := lh.Lookahead(); la > 1 {
			return la
		}
	}
	return 1
}

var (
	_ sim.Component  = (*CoreShard)(nil)
	_ sim.EventAware = (*CoreShard)(nil)
	_ sim.Settler    = (*CoreShard)(nil)
)
