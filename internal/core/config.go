// Package core implements the paper's primary contribution: a
// cycle-accurate simulator of the Tagged-Token Dataflow Architecture of
// Figures 2-3 and 2-4. A machine is a set of processing elements joined by
// a packet network; each PE is the pipeline
//
//	input → waiting-matching → instruction fetch → ALU → output section
//
// with a co-located I-structure storage controller (d=1 tokens) and a PE
// controller for manager operations (d=2 tokens: context allocation and
// I-structure allocation). Tokens carry <d, PE, (u,c,s,i), nt, port, data>
// exactly as Section 2.2.2 describes; the unbounded activity-name space is
// mapped onto the machine by hashing tags to PEs.
//
// The machine executes the same compiled graphs as the reference
// interpreter (internal/graph) and the emulator (internal/emulator), and
// must agree with them on every answer. Like the interpreter, it runs the
// graph's ahead-of-time execution plan (graph.CompiledGraph), never the
// IR itself.
package core

import (
	"repro/internal/graph"
	"repro/internal/network"
	"repro/internal/sim"
)

// Config parameterizes a Machine.
type Config struct {
	// PEs is the number of processing elements (minimum 1).
	PEs int

	// Net carries inter-PE traffic. Nil selects an ideal network with
	// NetLatency cycles of transit; experiments substitute real topologies.
	Net network.Network
	// NetLatency configures the default ideal network (minimum 1).
	NetLatency sim.Cycle

	// OpTime gives per-opcode ALU service times; nil means one cycle for
	// every operation. The function must be pure: it is sampled once per
	// opcode at machine construction into a dense table.
	OpTime func(graph.Opcode) sim.Cycle

	// Compiled is ignored: every machine executes the ahead-of-time
	// compiled plan (graph.Compile), built by NewMachine or supplied to
	// NewMachineWithPlan.
	//
	// Deprecated: leave it unset. It remains only so that existing callers
	// still compile.
	Compiled bool

	// Shards > 1 runs the machine on the conservative sharded simulation
	// kernel (sim.ParallelEngine): PEs and their co-located I-structure
	// modules are split into that many contiguous shards, stepped in shard
	// order on the calling goroutine, with cross-shard effects deferred to
	// a per-cycle commit. Results, cycle counts, and statistics are
	// bit-identical to the sequential run (Shards <= 1). Ignored when
	// Trace is set — tracing samples machine state mid-step and stays on
	// the sequential driver.
	Shards int

	// EpochWindow controls multi-tick epoch windows on the parallel
	// kernel (Shards > 1): 0 or 1 runs the classic one-tick epochs, a
	// value >= 2 caps each window at that many cycles, and a negative
	// value runs fully adaptive windows bounded only by the fabric's
	// cross-shard horizon. Windows require a fabric that declares a
	// windowing lookahead (network.Windowable — the ideal network does;
	// stepped fabrics with per-cycle arbitration do not): with any other
	// fabric the setting is silently ignored and epochs stay per-tick.
	// Results, cycle counts, and statistics are bit-identical across all
	// settings.
	EpochWindow int

	// MatchBandwidth is how many tokens the waiting-matching section
	// accepts per cycle. The default 2 models a dual-ported associative
	// store so one two-operand instruction can be enabled per cycle.
	MatchBandwidth int
	// OutputBandwidth is how many result tokens the output section emits
	// per cycle (default 2: one per operand consumer on average).
	OutputBandwidth int
	// MatchCapacity bounds the waiting-matching store entries (0 =
	// unbounded). When full, the input stage stalls — the associative
	// memory pressure the paper worries about.
	MatchCapacity int

	// ControllerTime is the PE-controller service time for d=2 requests
	// (context and structure allocation); default 2 cycles.
	ControllerTime sim.Cycle

	// ISCellsPerPE sizes each PE's I-structure module (default 1<<16).
	// Global addresses interleave across PEs: address a lives on module
	// a mod PEs.
	ISCellsPerPE uint32
	// ISReadTime and ISWriteTime are controller occupancies; defaults 1
	// and 2 (the paper's ratio).
	ISReadTime, ISWriteTime sim.Cycle

	// Trace, when non-nil, records machine events (instruction firings,
	// I-structure traffic, manager operations) into a bounded ring.
	Trace *Tracer
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.PEs < 1 {
		c.PEs = 1
	}
	if c.NetLatency < 1 {
		c.NetLatency = 2
	}
	if c.MatchBandwidth < 1 {
		c.MatchBandwidth = 2
	}
	if c.OutputBandwidth < 1 {
		c.OutputBandwidth = 2
	}
	if c.ControllerTime < 1 {
		c.ControllerTime = 2
	}
	if c.ISCellsPerPE == 0 {
		c.ISCellsPerPE = 1 << 16
	}
	if c.ISReadTime == 0 {
		c.ISReadTime = 1
	}
	if c.ISWriteTime == 0 {
		c.ISWriteTime = 2
	}
	if c.OpTime == nil {
		c.OpTime = func(graph.Opcode) sim.Cycle { return 1 }
	}
	return c
}
