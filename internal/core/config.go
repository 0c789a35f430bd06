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

// ISCellsPerPE sizes each PE's I-structure module. Global addresses
// interleave across PEs: address a lives on module a mod PEs, so a machine
// holds ISCellsPerPE × PEs cells, at most 2³² − 1 (isCellLimit).
const ISCellsPerPE = 1 << 16

// controllerTime is the PE-controller service time for d=2 requests
// (context and structure allocation).
const controllerTime sim.Cycle = 2

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
	// Deprecated: leave it unset. It remains only because the benchmark's
	// bench/knobs.go sets it.
	Compiled bool

	// Shards is ignored: every machine runs on the sequential sim.Engine,
	// since the sharded kernel was slower on every program (DESIGN.md §12).
	//
	// Deprecated: leave it unset. It remains only because the benchmark's
	// bench/knobs.go sets it.
	Shards int

	// EpochWindow is ignored, as Shards is.
	//
	// Deprecated: leave it unset. It remains only because the benchmark's
	// bench/knobs.go sets it.
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
	if c.OpTime == nil {
		c.OpTime = func(graph.Opcode) sim.Cycle { return 1 }
	}
	return c
}
