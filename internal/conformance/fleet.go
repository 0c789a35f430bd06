package conformance

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/cmstar"
	"repro/internal/machines/connection"
	"repro/internal/machines/hep"
	"repro/internal/machines/ultra"
	"repro/internal/machines/vliw"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
)

// runLimit bounds every simulated run; generated programs are tiny, so
// hitting it means a machine diverged.
const runLimit = 50_000_000

// Snapshot is the full observable state of one machine run, comparable
// with ==. The determinism oracle compares everything including the
// engine counters; the engine-honesty oracle compares only the simulated
// observables (Engine differs between wake-queue and exhaustive modes by
// construction).
type Snapshot struct {
	Result int64
	Cycles uint64
	// Core 0's statistics (the active core on parked-fleet baselines).
	Busy, Idle, MemOps, MemWait, Switches, Retired uint64
	// Extra holds machine-specific counters (bank served, remote refs,
	// combine ops, fired instructions, ...).
	Extra [4]uint64
	// Engine is the scheduler's own accounting.
	Engine sim.Counters
}

// Observables strips the engine counters, leaving only what the
// simulated machine itself produced.
func (s Snapshot) Observables() Snapshot {
	s.Engine = sim.Counters{}
	return s
}

// coreStats flattens a vn core's counters into the snapshot fields.
func coreStats(s *Snapshot, c *vn.Core) {
	st := c.Stats()
	s.Busy = st.Busy.Value()
	s.Idle = st.Idle.Value()
	s.MemOps = st.MemOps.Value()
	s.MemWait = st.MemWait.Value()
	s.Switches = st.Switches.Value()
	s.Retired = st.Retired.Value()
}

// compiled caches the two compiled forms of a workload so every runner
// shares identical inputs.
type compiled struct {
	w    Workload
	prog *graph.Program // dataflow graph (TTDA, emulator, interpreter)
	// plan is prog's execution plan, built once per seed and shared by
	// every TTDA machine the oracles build on it (sequential and sharded
	// alike), except the own-plan references of the compiled-equivalence
	// and checkpoint oracles.
	plan *graph.CompiledGraph
	asm  *vn.Program   // vn machine code (all Section-1.2 baselines)
	args []token.Value // entry tokens for the dataflow forms
}

func compile(w Workload) (*compiled, error) {
	prog, err := id.Compile(w.IDSource())
	if err != nil {
		return nil, fmt.Errorf("compile ID form: %v", err)
	}
	plan, err := graph.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("compile plan: %v", err)
	}
	args, err := id.EntryArgs(prog, []token.Value{token.Int(w.N)})
	if err != nil {
		return nil, fmt.Errorf("entry args: %v", err)
	}
	asm, err := vn.Assemble(w.ASMSource())
	if err != nil {
		return nil, fmt.Errorf("assemble vn form: %v", err)
	}
	return &compiled{w: w, prog: prog, plan: plan, asm: asm, args: args}, nil
}

// runInterp executes the reference interpreter and returns the answer
// plus the interpreter (for Depth/S∞).
func runInterp(c *compiled) (int64, *graph.Interp, error) {
	it := graph.NewInterp(c.prog)
	res, err := it.Run(c.args...)
	if err != nil {
		return 0, nil, err
	}
	if len(res) != 1 {
		return 0, nil, fmt.Errorf("interp: %d results", len(res))
	}
	v, err := res[0].AsInt()
	return v, it, err
}

// forceLegacy registers an inert non-EventAware component, flipping the
// engine into its exhaustive per-cycle fallback — the engine-honesty
// oracle's second arm. It accepts any driver with Register so machines
// that expose sim.Driver work too; only sequential engines are ever
// forced (the parallel engine requires EventAware components).
func forceLegacy(e interface{ Register(sim.Component) }) {
	e.Register(sim.ComponentFunc(func(sim.Cycle) {}))
}

// runTTDA executes the dataflow graph on the cycle-accurate tagged-token
// machine. shards > 1 selects the conservative parallel kernel (never
// combined with legacy, which requires the sequential engine); window sets
// the parallel kernel's epoch window width (0/1 per-tick, >= 2 capped, < 0
// adaptive — meaningful only with shards > 1). The machine runs the seed's
// shared plan, or with ownPlan a private one NewMachine compiles, which
// the compiled-equivalence oracle pins the shared plan against.
func runTTDA(c *compiled, pes int, netLatency sim.Cycle, legacy bool, shards, window int, ownPlan bool) (Snapshot, error) {
	m := newTTDA(c, core.Config{PEs: pes, NetLatency: netLatency, Shards: shards, EpochWindow: window}, ownPlan)
	if legacy {
		forceLegacy(m.Engine())
	}
	res, err := m.Run(runLimit, c.args...)
	if err != nil {
		return Snapshot{}, err
	}
	if len(res) != 1 {
		return Snapshot{}, fmt.Errorf("ttda: %d results", len(res))
	}
	v, err := res[0].AsInt()
	if err != nil {
		return Snapshot{}, err
	}
	sum := m.Summarize()
	return Snapshot{
		Result: v,
		Cycles: sum.Cycles,
		Extra:  [4]uint64{sum.Fired, sum.Matches, sum.NetSends, sum.ISReads + sum.ISWrites},
		Engine: m.Engine().Counters(),
	}, nil
}

// newTTDA builds a tagged-token machine on the seed's shared plan, or with
// ownPlan on a plan of its own.
func newTTDA(c *compiled, cfg core.Config, ownPlan bool) *core.Machine {
	if ownPlan {
		return core.NewMachine(cfg, c.prog)
	}
	return core.NewMachineWithPlan(cfg, c.plan)
}

// runEmulator executes the graph on the hypercube emulation facility.
// The facility is untimed and internally concurrent, so only its answer
// participates in the oracles.
func runEmulator(c *compiled, nodes int) (int64, error) {
	f, err := emulator.Build(emulator.Config{Nodes: nodes}, c.prog)
	if err != nil {
		return 0, err
	}
	res, err := f.Run(c.args...)
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("emulator: %d results", len(res))
	}
	return res[0].AsInt()
}

// runVN executes the asm form on a single vn core over LatencyMemory,
// either through the wake-queue engine or the plain exhaustive
// scheduler (evented=false) — the same pairing the per-package property
// tests use.
func runVN(c *compiled, contexts int, latency sim.Cycle, evented bool) (Snapshot, error) {
	mem := vn.NewLatencyMemory(latency)
	cpu := vn.NewCore(c.asm, mem, contexts)
	halted := func() bool { return cpu.Halted() && mem.Pending() == 0 }

	var s Snapshot
	if evented {
		eng := sim.NewEngine()
		eng.Register(mem)
		eng.Register(cpu)
		elapsed, ok := eng.Run(halted, runLimit)
		if !ok {
			return s, fmt.Errorf("vn: no halt in %d cycles", runLimit)
		}
		s.Cycles = uint64(elapsed)
		s.Engine = eng.Counters()
	} else {
		sch := sim.NewScheduler()
		sch.Register(mem)
		sch.Register(cpu)
		elapsed, ok := sch.Run(halted, runLimit)
		if !ok {
			return s, fmt.Errorf("vn: no halt in %d cycles", runLimit)
		}
		s.Cycles = uint64(elapsed)
	}
	s.Result = int64(mem.Peek(ResultAddr))
	coreStats(&s, cpu)
	return s, nil
}

// park points every context of cores [1, total) at the trailing halt
// instruction, leaving core 0 to run the program alone — the idiom the
// experiments use for single-stream runs on multiprocessor models.
func park(total, contexts int, coreAt func(int) *vn.Core, prog *vn.Program) {
	last := len(prog.Instrs) - 1
	for i := 1; i < total; i++ {
		for k := 0; k < contexts; k++ {
			coreAt(i).Context(k).SetPC(last)
		}
	}
}

// runCmmp executes the asm form on core 0 of a 2-processor C.mmp.
func runCmmp(c *compiled, switchDelay sim.Cycle, legacy bool, shards int) (Snapshot, error) {
	m := cmmp.New(cmmp.Config{Processors: 2, Banks: 2, SwitchDelay: switchDelay, Shards: shards}, c.asm, 1)
	park(2, 1, m.Core, c.asm)
	if legacy {
		forceLegacy(m.Engine())
	}
	elapsed, err := m.Run(runLimit)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{
		Result: int64(m.Peek(ResultAddr)),
		Cycles: uint64(elapsed),
		Extra:  [4]uint64{m.Crossbar().Stats().Delivered.Value()},
		Engine: m.Engine().Counters(),
	}
	coreStats(&s, m.Core(0))
	return s, nil
}

// cmstarConfig keeps the cluster space tight so both ResultAddr and the
// fill array land in clusters remote from core 0 — remote references are
// what give HopLatency leverage.
func cmstarConfig(hopLatency sim.Cycle) cmstar.Config {
	return cmstar.Config{Clusters: 8, CoresPerCluster: 1, ClusterWords: 32, HopLatency: hopLatency}
}

// runCmstar executes the asm form on core 0 of cluster 0 of an 8-cluster
// Cm*; all data addresses are inter-cluster references.
func runCmstar(c *compiled, hopLatency sim.Cycle, legacy bool, shards int) (Snapshot, error) {
	cfg := cmstarConfig(hopLatency)
	cfg.Shards = shards
	m := cmstar.New(cfg, c.asm)
	park(m.NumCores(), 1, m.CoreAt, c.asm)
	if legacy {
		forceLegacy(m.Engine())
	}
	elapsed, err := m.Run(runLimit)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{
		Result: int64(m.Peek(ResultAddr)),
		Cycles: uint64(elapsed),
		Extra:  [4]uint64{m.Stats().LocalRefs.Value(), m.Stats().RemoteRefs.Value()},
		Engine: m.Engine().Counters(),
	}
	coreStats(&s, m.CoreAt(0))
	return s, nil
}

// runUltra executes the asm form on core 0 of a 4-processor
// Ultracomputer.
func runUltra(c *compiled, combining, legacy bool, shards int) (Snapshot, error) {
	m := ultra.New(ultra.Config{LogProcessors: 2, Combining: combining, Shards: shards}, c.asm)
	park(m.NumProcessors(), 1, m.Core, c.asm)
	if legacy {
		forceLegacy(m.Engine())
	}
	elapsed, err := m.Run(runLimit)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{
		Result: int64(m.Peek(ResultAddr)),
		Cycles: uint64(elapsed),
		Extra:  [4]uint64{m.BankServed(0), m.Network().CombineOps.Value()},
		Engine: m.Engine().Counters(),
	}
	coreStats(&s, m.Core(0))
	return s, nil
}

// runHEP executes the asm form on core 0 of a 2-processor HEP with two
// hardware contexts; both contexts of core 0 run the identical program
// (the fold is idempotent across streams), exercising the full/empty
// memory's retry path.
func runHEP(c *compiled, legacy bool, shards int) (Snapshot, error) {
	m := hep.New(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4, Shards: shards}, c.asm)
	park(2, 1, m.Core, c.asm)
	if legacy {
		forceLegacy(m.Engine())
	}
	elapsed, err := m.Run(runLimit)
	if err != nil {
		return Snapshot{}, err
	}
	s := Snapshot{
		Result: int64(m.Memory().Peek(ResultAddr)),
		Cycles: uint64(elapsed),
		Engine: m.Engine().Counters(),
	}
	coreStats(&s, m.Core(0))
	return s, nil
}

// runConnection folds the workload on the Connection Machine model: each
// cell computes f(pe) locally (one broadcast compute instruction), then a
// routing instruction delivers every term to cell 0, which folds them as
// they arrive — exact because the fold operator is commutative and
// associative mod 2^64.
func runConnection(c *compiled) (int64, sim.Cycle, error) {
	m := connection.New(connection.Config{LogPEs: 4}, 1)
	w := c.w
	m.Compute(func(pe int, mem []int64) {
		if pe >= 1 && pe <= int(w.N) {
			mem[0] = w.Body.eval(int64(pe))
		}
	})
	msgs := make([]connection.Message, 0, w.N)
	for pe := 1; pe <= int(w.N); pe++ {
		msgs = append(msgs, connection.Message{From: pe, To: 0, Value: m.Mem(pe)[0]})
	}
	acc := w.Init
	steps := m.Route(msgs, func(to int, v int64) { acc = w.fold(acc, v) })
	return acc, steps, nil
}

// vliwSchedule derives a static schedule from the workload: one bundle
// chain per iteration, a memory reference where the asm form touches
// memory. The VLIW model computes no data values, so it participates
// only in the determinism and metamorphic oracles.
func vliwSchedule(w Workload) []vliw.Bundle {
	perIter := 3
	if w.Shape == ShapeFill {
		perIter = 5
	}
	sched := make([]vliw.Bundle, 0, int(w.N)*perIter)
	for i := int64(0); i < w.N; i++ {
		for b := 0; b < perIter; b++ {
			bu := vliw.Bundle{Ops: 2}
			if b == 0 {
				bu.Loads = []vliw.Load{{Slack: int(i % 3)}}
			}
			sched = append(sched, bu)
		}
	}
	return sched
}

// runVLIW plays the derived schedule against a stochastic memory.
func runVLIW(w Workload, missLatency sim.Cycle) vliw.Result {
	return vliw.Run(vliwSchedule(w), vliw.Config{
		HitLatency:  1,
		MissLatency: missLatency,
		MissRate:    0.3,
		Seed:        w.Seed + 1,
	})
}
