package conformance

import (
	"errors"
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
	// Extra holds the machine-specific counters ExtraNames names.
	Extra [5]uint64
	// Engine is the scheduler's own accounting.
	Engine sim.Counters
}

// ExtraNames names each fleet member's Snapshot.Extra counters in slot
// order; the service reports them under these names.
var ExtraNames = map[string][]string{
	"ttda":   {"fired", "matches", "net_sends", "is_reads", "is_writes"},
	"cmmp":   {"xbar_delivered"},
	"cmstar": {"local_refs", "remote_refs"},
	"ultra":  {"bank0_served", "combine_ops"},
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

// Machine is one member of the fleet, built on a program by its
// constructor (NewTTDA, NewVN, NewCmmp, NewCmstar, NewUltra, NewHEP) and
// run by the oracles and the service alike. Run advances at most limit
// more cycles and reports whether the program finished; a core fault is
// an error. A pause (done == false) leaves the machine intact: Run
// continues it, and a checkpoint taken in between restores into a fresh
// build and continues there, both bit-identical to a run that never
// paused. Snapshot summarizes the run once Run reported done.
type Machine interface {
	sim.Stateful
	Run(limit sim.Cycle) (done bool, err error)
	Engine() *sim.Engine
	Snapshot() Snapshot
}

// TTDA is the tagged-token machine as a fleet member. It holds its entry
// arguments: the machine injects them only when starting fresh, so a
// continued or restored run resumes instead of restarting.
type TTDA struct {
	m    *core.Machine
	args []token.Value
	res  []token.Value
}

// NewTTDA builds a tagged-token machine that runs plan on args.
func NewTTDA(cfg core.Config, plan *graph.CompiledGraph, args []token.Value) *TTDA {
	return &TTDA{m: core.NewMachineWithPlan(cfg, plan), args: args}
}

func (t *TTDA) SaveState(e *sim.Enc)       { t.m.SaveState(e) }
func (t *TTDA) LoadState(d *sim.Dec) error { return t.m.LoadState(d) }
func (t *TTDA) Engine() *sim.Engine        { return t.m.Engine() }

func (t *TTDA) Run(limit sim.Cycle) (bool, error) {
	res, err := t.m.Run(limit, t.args...)
	if errors.Is(err, sim.ErrLimit) {
		return false, nil
	}
	t.res = res
	return err == nil, err
}

// Results returns the program's return values once Run reported done.
func (t *TTDA) Results() []token.Value { return t.res }

// Snapshot's Result is the program's return value when it returned one
// integer.
func (t *TTDA) Snapshot() Snapshot {
	sum := t.m.Summarize()
	s := Snapshot{
		Cycles: sum.Cycles,
		Extra:  [5]uint64{sum.Fired, sum.Matches, sum.NetSends, sum.ISReads, sum.ISWrites},
		Engine: t.m.Engine().Counters(),
	}
	if len(t.res) == 1 && t.res[0].Kind == token.KindInt {
		s.Result = t.res[0].I
	}
	return s
}

// vnRunner is the Run shape every vn-family machine shares: a limit
// reached is a sim.ErrLimit pause, a core's address fault the error.
type vnRunner interface {
	sim.Stateful
	Run(limit sim.Cycle) (sim.Cycle, error)
	Engine() *sim.Engine
}

// vnMember makes a vn-family machine a fleet member. Its Run shadows the
// machine's own, turning the pause into done == false; its snapshot is
// the answer word at ResultAddr, core 0's statistics and the machine's
// extra counters.
type vnMember struct {
	vnRunner
	core0 *vn.Core
	peek  func(addr uint32) vn.Word
	extra func() [5]uint64
}

func (v *vnMember) Run(limit sim.Cycle) (bool, error) {
	_, err := v.vnRunner.Run(limit)
	if errors.Is(err, sim.ErrLimit) {
		return false, nil
	}
	return err == nil, err
}

func (v *vnMember) Snapshot() Snapshot {
	eng := v.Engine()
	s := Snapshot{Result: int64(v.peek(ResultAddr)), Cycles: uint64(eng.Now()), Engine: eng.Counters()}
	if v.extra != nil {
		s.Extra = v.extra()
	}
	coreStats(&s, v.core0)
	return s
}

// park points every context of cores 1..n-1 at the program's trailing
// halt, leaving core 0 to run the program alone — the experiments'
// single-stream idiom.
func park(prog *vn.Program, n int, coreAt func(int) *vn.Core) {
	last := len(prog.Instrs) - 1
	for i := 1; i < n; i++ {
		c := coreAt(i)
		for k := 0; k < c.Contexts(); k++ {
			c.Context(k).SetPC(last)
		}
	}
}

// vnSingle is the single-core vn machine: one core over LatencyMemory on
// its own engine.
type vnSingle struct {
	eng *sim.Engine
	mem *vn.LatencyMemory
	cpu *vn.Core
}

func (v *vnSingle) Engine() *sim.Engine { return v.eng }

func (v *vnSingle) Run(limit sim.Cycle) (sim.Cycle, error) {
	elapsed, ok := v.eng.Run(func() bool { return v.cpu.Halted() && v.mem.Pending() == 0 }, limit)
	if !ok {
		return elapsed, sim.Limitf("vn: did not halt within %d cycles", limit)
	}
	return elapsed, v.cpu.Fault()
}

func (v *vnSingle) SaveState(e *sim.Enc) {
	e.Tag("vnmach", 1)
	v.eng.SaveState(e)
	v.mem.SaveTo(e)
	v.cpu.SaveState(e)
}

func (v *vnSingle) LoadState(d *sim.Dec) error {
	if err := d.Tag("vnmach", 1); err != nil {
		return err
	}
	if err := v.eng.LoadState(d); err != nil {
		return err
	}
	if err := v.mem.LoadFrom(d, vn.Resolver([]*vn.Core{v.cpu})); err != nil {
		return err
	}
	return v.cpu.LoadState(d)
}

// NewVN builds the single-core vn machine: one core with the given
// hardware contexts over a memory of the given latency.
func NewVN(prog *vn.Program, contexts int, latency sim.Cycle) Machine {
	mem := vn.NewLatencyMemory(latency)
	cpu := vn.NewCore(prog, mem, contexts)
	eng := sim.NewEngine()
	eng.Register(mem)
	eng.Register(cpu)
	return &vnMember{vnRunner: &vnSingle{eng: eng, mem: mem, cpu: cpu}, core0: cpu, peek: mem.Peek}
}

// NewCmmp builds a C.mmp whose processor 0 runs prog.
func NewCmmp(cfg cmmp.Config, prog *vn.Program) Machine {
	m := cmmp.New(cfg, prog, 1)
	park(prog, m.NumProcessors(), m.Core)
	return &vnMember{vnRunner: m, core0: m.Core(0), peek: m.Peek, extra: func() [5]uint64 {
		return [5]uint64{m.Crossbar().Stats().Delivered.Value()}
	}}
}

// NewCmstar builds a Cm* whose core 0 of cluster 0 runs prog.
func NewCmstar(cfg cmstar.Config, prog *vn.Program) Machine {
	m := cmstar.New(cfg, prog)
	park(prog, m.NumCores(), m.CoreAt)
	return &vnMember{vnRunner: m, core0: m.CoreAt(0), peek: m.Peek, extra: func() [5]uint64 {
		return [5]uint64{m.Stats().LocalRefs.Value(), m.Stats().RemoteRefs.Value()}
	}}
}

// NewUltra builds an Ultracomputer whose processor 0 runs prog.
func NewUltra(cfg ultra.Config, prog *vn.Program) Machine {
	m := ultra.New(cfg, prog)
	park(prog, m.NumProcessors(), m.Core)
	return &vnMember{vnRunner: m, core0: m.Core(0), peek: m.Peek, extra: func() [5]uint64 {
		return [5]uint64{m.BankServed(0), m.Network().CombineOps.Value()}
	}}
}

// NewHEP builds a HEP whose processor 0 runs prog on every context.
func NewHEP(cfg hep.Config, prog *vn.Program) Machine {
	m := hep.New(cfg, prog)
	park(prog, m.NumProcessors(), m.Core)
	return &vnMember{vnRunner: m, core0: m.Core(0), peek: m.Memory().Peek}
}

// compiled caches the two compiled forms of a workload so every runner
// shares identical inputs.
type compiled struct {
	w    Workload
	prog *graph.Program // dataflow graph (TTDA, emulator, interpreter)
	// plan is prog's execution plan, built once per seed and shared by
	// every TTDA machine the oracles build on it, except the own-plan
	// references of the compiled-equivalence and checkpoint oracles.
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

// finish runs a fleet member to completion and returns its snapshot.
// With legacy set it first registers an inert non-EventAware component,
// flipping the member's engine into its exhaustive per-cycle fallback —
// the engine-honesty oracle's second arm.
func finish(m Machine, legacy bool) (Snapshot, error) {
	if legacy {
		m.Engine().Register(sim.ComponentFunc(func(sim.Cycle) {}))
	}
	done, err := m.Run(runLimit)
	if err == nil && !done {
		err = fmt.Errorf("did not finish within %d cycles", runLimit)
	}
	if err != nil {
		return Snapshot{}, err
	}
	return m.Snapshot(), nil
}

// runTTDA executes the dataflow graph on the cycle-accurate tagged-token
// machine. The machine runs the seed's shared plan, or with ownPlan a
// private one NewMachine compiles, which the compiled-equivalence oracle
// pins the shared plan against.
func runTTDA(c *compiled, pes int, netLatency sim.Cycle, legacy, ownPlan bool) (Snapshot, error) {
	m := newTTDA(c, core.Config{PEs: pes, NetLatency: netLatency}, ownPlan)
	s, err := finish(m, legacy)
	if res := m.Results(); err == nil && (len(res) != 1 || res[0].Kind != token.KindInt) {
		err = fmt.Errorf("ttda: results %v, want one integer", res)
	}
	return s, err
}

// newTTDA builds a tagged-token machine on the seed's shared plan, or with
// ownPlan on a plan its core.NewMachine compiles.
func newTTDA(c *compiled, cfg core.Config, ownPlan bool) *TTDA {
	if ownPlan {
		return &TTDA{m: core.NewMachine(cfg, c.prog), args: c.args}
	}
	return NewTTDA(cfg, c.plan, c.args)
}

// runEmulator executes the graph on a 4-node hypercube emulation
// facility. The facility is untimed and internally concurrent, so only its
// answer participates in the oracles.
func runEmulator(c *compiled) (int64, error) {
	res, err := emulator.New(emulator.Config{Dim: 2}, c.prog).Run(c.args...)
	if err != nil {
		return 0, err
	}
	if len(res) != 1 {
		return 0, fmt.Errorf("emulator: %d results", len(res))
	}
	return res[0].AsInt()
}

// runVN executes the asm form on a single vn core over LatencyMemory,
// either as the fleet's vn machine on the wake-queue engine or on the
// plain exhaustive scheduler (evented=false) — the same pairing the
// per-package property tests use.
func runVN(c *compiled, contexts int, latency sim.Cycle, evented bool) (Snapshot, error) {
	if evented {
		return finish(NewVN(c.asm, contexts, latency), false)
	}
	mem := vn.NewLatencyMemory(latency)
	cpu := vn.NewCore(c.asm, mem, contexts)
	sch := sim.NewScheduler()
	sch.Register(mem)
	sch.Register(cpu)
	elapsed, ok := sch.Run(func() bool { return cpu.Halted() && mem.Pending() == 0 }, runLimit)
	if !ok {
		return Snapshot{}, fmt.Errorf("vn: no halt in %d cycles", runLimit)
	}
	s := Snapshot{Result: int64(mem.Peek(ResultAddr)), Cycles: uint64(elapsed)}
	coreStats(&s, cpu)
	return s, nil
}

// runCmmp executes the asm form on core 0 of a 2-processor C.mmp.
func runCmmp(c *compiled, switchDelay sim.Cycle, legacy bool) (Snapshot, error) {
	return finish(NewCmmp(cmmp.Config{Processors: 2, Banks: 2, SwitchDelay: switchDelay}, c.asm), legacy)
}

// cmstarConfig keeps the cluster space tight so both ResultAddr and the
// fill array land in clusters remote from core 0 — remote references are
// what give HopLatency leverage.
func cmstarConfig(hopLatency sim.Cycle) cmstar.Config {
	return cmstar.Config{Clusters: 8, CoresPerCluster: 1, ClusterWords: 32, HopLatency: hopLatency}
}

// runCmstar executes the asm form on core 0 of cluster 0 of an 8-cluster
// Cm*; all data addresses are inter-cluster references.
func runCmstar(c *compiled, hopLatency sim.Cycle, legacy bool) (Snapshot, error) {
	return finish(NewCmstar(cmstarConfig(hopLatency), c.asm), legacy)
}

// runUltra executes the asm form on core 0 of a 4-processor
// Ultracomputer.
func runUltra(c *compiled, combining, legacy bool) (Snapshot, error) {
	return finish(NewUltra(ultra.Config{LogProcessors: 2, Combining: combining}, c.asm), legacy)
}

// runHEP executes the asm form on core 0 of a 2-processor HEP with one
// hardware context per core, through the full/empty memory.
func runHEP(c *compiled, legacy bool) (Snapshot, error) {
	return finish(NewHEP(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4}, c.asm), legacy)
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
