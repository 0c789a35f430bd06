package serve

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/machines/cmmp"
	"repro/internal/machines/cmstar"
	"repro/internal/machines/hep"
	"repro/internal/machines/ultra"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
)

// ResultAddr is where vn assembly programs store their answer — the
// conformance generator's convention, shared so generated load-test
// programs run unmodified.
const ResultAddr = conformance.ResultAddr

// sliceCycles is the engine budget between cancellation checks: every
// cycle-accurate run advances in slices of at most this many cycles,
// polling the request context in between. The machines' pause/resume
// contract (a Run that hits its limit leaves the machine intact and
// resumable, PR 7) makes the sliced run bit-identical to an
// uninterrupted one, so cancellation costs nothing on the simulated
// timeline — it only bounds how long a dead request can hold a worker.
const sliceCycles = 20_000

// RunResult is the deterministic payload of one job. It deliberately
// carries no wall-clock timing — encoding it to JSON yields identical
// bytes for identical specs on any host at any time, which is what lets
// a cache hit be compared byte-for-byte against a cold run. Timing
// travels in response headers instead.
type RunResult struct {
	Key         string `json:"key"`
	CodeVersion string `json:"code_version"`
	Machine     string `json:"machine,omitempty"`
	Experiment  string `json:"experiment,omitempty"`
	// Results are a dataflow program's return values; Result is a vn
	// program's answer word at ResultAddr.
	Results []string `json:"results,omitempty"`
	Result  *int64   `json:"result,omitempty"`
	Cycles  uint64   `json:"cycles,omitempty"`
	// Stats holds per-machine counters; encoding/json sorts the keys,
	// keeping the rendering canonical.
	Stats  map[string]uint64 `json:"stats,omitempty"`
	Engine *sim.Counters     `json:"engine_counters,omitempty"`
	// Finding and Tables carry an experiment job's report.
	Finding string   `json:"finding,omitempty"`
	Tables  []string `json:"tables,omitempty"`
}

// experimentFns indexes the paper experiments by ID. Experiment jobs run
// in quick mode; unlike program jobs they are not interruptible between
// slices (the experiment drivers own their machines), so they rely on
// quick-mode scale to stay bounded.
var experimentFns = map[string]func(experiments.Options) experiments.Result{
	"E1": experiments.E1LatencyTolerance, "E2": experiments.E2ContextCounts,
	"E3": experiments.E3CacheCoherence, "E4": experiments.E4ReadBeforeWrite,
	"E5": experiments.E5Trapezoid, "E6": experiments.E6PipelineAnatomy,
	"E7": experiments.E7Cmmp, "E8": experiments.E8Cmstar,
	"E9": experiments.E9FetchAndAdd, "E10": experiments.E10ConnectionMachine,
	"E11": experiments.E11Emulator, "E12": experiments.E12VLIW,
	"E13": experiments.E13ParallelismGrail, "E14": experiments.E14ConformanceSweep,
}

// runJob executes a normalized spec and returns its deterministic
// result. Errors are *apiError (including context cancellation, mapped
// by the caller) so every failure has exactly one HTTP status.
func runJob(ctx context.Context, spec *JobSpec) (*RunResult, error) {
	if spec.Experiment != "" {
		return runExperiment(spec.Experiment)
	}
	switch spec.Machine {
	case "interp":
		return runInterpJob(spec)
	case "direct":
		return runDirectJob(spec)
	case "ttda":
		return runTTDAJob(ctx, spec)
	case "vn":
		return runVNJob(ctx, spec)
	default:
		return runBaselineJob(ctx, spec)
	}
}

func runExperiment(expID string) (*RunResult, error) {
	fn, ok := experimentFns[expID]
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown experiment %q", expID)
	}
	r := fn(experiments.Options{Quick: true})
	if r.Err != nil {
		return nil, errf(http.StatusInternalServerError, "experiment %s failed: %v", expID, r.Err)
	}
	out := &RunResult{Experiment: expID, Finding: r.Finding}
	for _, t := range r.Tables {
		out.Tables = append(out.Tables, t.String())
	}
	return out, nil
}

// compileID compiles MiniID source and builds entry tokens; every
// failure here is the submitter's fault (400).
func compileID(spec *JobSpec) (*graph.Program, []token.Value, error) {
	prog, err := id.Compile(spec.Program)
	if err != nil {
		return nil, nil, errf(http.StatusBadRequest, "compile minid: %v", err)
	}
	vals := make([]token.Value, len(spec.Args))
	for i, a := range spec.Args {
		vals[i] = token.Int(a)
	}
	args, err := id.EntryArgs(prog, vals)
	if err != nil {
		return nil, nil, errf(http.StatusBadRequest, "entry args: %v", err)
	}
	return prog, args, nil
}

func runInterpJob(spec *JobSpec) (*RunResult, error) {
	prog, args, err := compileID(spec)
	if err != nil {
		return nil, err
	}
	it := graph.NewInterp(prog)
	it.SetMaxSteps(spec.Config.MaxCycles)
	res, err := it.Run(args...)
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "interp: %v", err)
	}
	out := &RunResult{Machine: spec.Machine, Stats: map[string]uint64{
		"fired":           it.Fired(),
		"tokens":          it.Tokens(),
		"critical_path":   uint64(it.Depth()),
		"max_parallelism": uint64(it.MaxParallelism()),
	}}
	for _, v := range res {
		out.Results = append(out.Results, v.String())
	}
	return out, nil
}

// runDirectJob serves result-only traffic on the direct-execution oracle
// backend: no cycle model, no engine, just the program's answer at native
// Go speed. MaxCycles bounds instruction firings here — the backend's
// only notion of time — so runaway programs still 422 instead of holding
// a worker.
func runDirectJob(spec *JobSpec) (*RunResult, error) {
	prog, args, err := compileID(spec)
	if err != nil {
		return nil, err
	}
	x := direct.New(prog)
	x.SetMaxSteps(spec.Config.MaxCycles)
	res, err := x.Run(args...)
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "direct: %v", err)
	}
	out := &RunResult{Machine: spec.Machine, Stats: map[string]uint64{
		"fired": x.Fired(),
	}}
	for _, v := range res {
		out.Results = append(out.Results, v.String())
	}
	return out, nil
}

// pausedErr reports a Run error that only means "cycle limit reached,
// machine intact" — the resumable pause every engine-backed machine
// signals with a "did not finish/halt within" error.
func pausedErr(err error) bool {
	return err != nil && strings.Contains(err.Error(), "did not")
}

// checkSlice accounts one slice of a sliced run and decides whether to
// keep going: nil keeps running, any error aborts. Context errors are
// returned bare so the HTTP layer can tell a gone client (499) from a
// per-request timeout (504).
func checkSlice(ctx context.Context, total *uint64, budget uint64, max uint64) error {
	*total += budget
	if *total >= max {
		return errf(http.StatusUnprocessableEntity, "program did not finish within max_cycles=%d", max)
	}
	return ctx.Err()
}

func runTTDAJob(ctx context.Context, spec *JobSpec) (*RunResult, error) {
	prog, args, err := compileID(spec)
	if err != nil {
		return nil, err
	}
	c := spec.Config
	m := core.NewMachine(core.Config{
		PEs:        c.PEs,
		NetLatency: sim.Cycle(c.NetLatency),
	}, prog)
	var res []token.Value
	var total uint64
	for {
		budget := min(uint64(sliceCycles), c.MaxCycles-total)
		res, err = m.Run(sim.Cycle(budget), args...)
		if err == nil {
			break
		}
		if !pausedErr(err) {
			return nil, errf(http.StatusUnprocessableEntity, "ttda: %v", err)
		}
		if err := checkSlice(ctx, &total, budget, c.MaxCycles); err != nil {
			return nil, err
		}
	}
	sum := m.Summarize()
	eng := m.Engine().Counters()
	out := &RunResult{
		Machine: spec.Machine,
		Cycles:  sum.Cycles,
		Stats: map[string]uint64{
			"fired":     sum.Fired,
			"matches":   sum.Matches,
			"net_sends": sum.NetSends,
			"is_reads":  sum.ISReads,
			"is_writes": sum.ISWrites,
		},
		Engine: &eng,
	}
	for _, v := range res {
		out.Results = append(out.Results, v.String())
	}
	return out, nil
}

func assemble(spec *JobSpec) (*vn.Program, error) {
	prog, err := vn.Assemble(spec.Program)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "assemble vnasm: %v", err)
	}
	return prog, nil
}

// vnStats flattens core 0's counters into the result's stats map.
func vnStats(st map[string]uint64, c *vn.Core) {
	s := c.Stats()
	st["busy"] = s.Busy.Value()
	st["idle"] = s.Idle.Value()
	st["mem_ops"] = s.MemOps.Value()
	st["mem_wait"] = s.MemWait.Value()
	st["switches"] = s.Switches.Value()
	st["retired"] = s.Retired.Value()
}

func runVNJob(ctx context.Context, spec *JobSpec) (*RunResult, error) {
	prog, err := assemble(spec)
	if err != nil {
		return nil, err
	}
	c := spec.Config
	mem := vn.NewLatencyMemory(sim.Cycle(c.MemLatency))
	cpu := vn.NewCore(prog, mem, c.Contexts)
	eng := sim.NewEngine()
	eng.Register(mem)
	eng.Register(cpu)
	halted := func() bool { return cpu.Halted() && mem.Pending() == 0 }
	var total uint64
	for {
		budget := min(uint64(sliceCycles), c.MaxCycles-total)
		elapsed, ok := eng.Run(halted, sim.Cycle(budget))
		if ok {
			total += uint64(elapsed)
			break
		}
		if err := checkSlice(ctx, &total, budget, c.MaxCycles); err != nil {
			return nil, err
		}
	}
	if err := cpu.Fault(); err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "vn: %v", err)
	}
	result := int64(mem.Peek(ResultAddr))
	cnt := eng.Counters()
	out := &RunResult{
		Machine: spec.Machine,
		Result:  &result,
		Cycles:  total,
		Stats:   map[string]uint64{},
		Engine:  &cnt,
	}
	vnStats(out.Stats, cpu)
	return out, nil
}

// baseline abstracts the four multiprocessor baselines behind the two
// calls the sliced runner needs.
type baseline interface {
	Run(limit sim.Cycle) (sim.Cycle, error)
	Engine() sim.Driver
}

// park points every context of cores [1, total) at the trailing halt,
// leaving core 0 to run the submitted program alone — the experiments'
// single-stream idiom, matching the conformance fleet.
func park(total int, coreAt func(int) *vn.Core, prog *vn.Program) {
	last := len(prog.Instrs) - 1
	for i := 1; i < total; i++ {
		coreAt(i).Context(0).SetPC(last)
	}
}

func runBaselineJob(ctx context.Context, spec *JobSpec) (*RunResult, error) {
	prog, err := assemble(spec)
	if err != nil {
		return nil, err
	}
	c := spec.Config
	var (
		m      baseline
		core0  *vn.Core
		peek   func() int64
		extras func(map[string]uint64)
	)
	switch spec.Machine {
	case "cmmp":
		mm := cmmp.New(cmmp.Config{Processors: 2, Banks: 2}, prog, 1)
		park(2, mm.Core, prog)
		core0 = mm.Core(0)
		peek = func() int64 { return int64(mm.Peek(ResultAddr)) }
		extras = func(st map[string]uint64) { st["xbar_delivered"] = mm.Crossbar().Stats().Delivered.Value() }
		m = mm
	case "cmstar":
		mm := cmstar.New(cmstar.Config{Clusters: 8, CoresPerCluster: 1, ClusterWords: 32, HopLatency: 3}, prog)
		park(mm.NumCores(), mm.CoreAt, prog)
		core0 = mm.CoreAt(0)
		peek = func() int64 { return int64(mm.Peek(ResultAddr)) }
		extras = func(st map[string]uint64) {
			st["local_refs"] = mm.Stats().LocalRefs.Value()
			st["remote_refs"] = mm.Stats().RemoteRefs.Value()
		}
		m = mm
	case "ultra":
		mm := ultra.New(ultra.Config{LogProcessors: 2, Combining: c.Combining}, prog)
		park(mm.NumProcessors(), mm.Core, prog)
		core0 = mm.Core(0)
		peek = func() int64 { return int64(mm.Peek(ResultAddr)) }
		extras = func(st map[string]uint64) {
			st["bank0_served"] = mm.BankServed(0)
			st["combine_ops"] = mm.Network().CombineOps.Value()
		}
		m = mm
	case "hep":
		mm := hep.New(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4}, prog)
		park(2, mm.Core, prog)
		core0 = mm.Core(0)
		peek = func() int64 { return int64(mm.Memory().Peek(ResultAddr)) }
		extras = func(map[string]uint64) {}
		m = mm
	default:
		return nil, errf(http.StatusNotFound, "unknown machine %q", spec.Machine)
	}

	var total uint64
	for {
		budget := min(uint64(sliceCycles), c.MaxCycles-total)
		elapsed, err := m.Run(sim.Cycle(budget))
		if err == nil {
			total += uint64(elapsed)
			break
		}
		if !pausedErr(err) {
			return nil, errf(http.StatusUnprocessableEntity, "%s: %v", spec.Machine, err)
		}
		if err := checkSlice(ctx, &total, budget, c.MaxCycles); err != nil {
			return nil, err
		}
	}
	result := peek()
	cnt := m.Engine().Counters()
	out := &RunResult{
		Machine: spec.Machine,
		Result:  &result,
		Cycles:  total,
		Stats:   map[string]uint64{},
		Engine:  &cnt,
	}
	vnStats(out.Stats, core0)
	extras(out.Stats)
	return out, nil
}
