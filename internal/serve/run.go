package serve

import (
	"context"
	"net/http"

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
// polling the request context in between. The machines' pause contract
// (a Run that hits its limit returns sim.ErrLimit and leaves the machine
// intact) makes the sliced run bit-identical to an uninterrupted one, so
// cancellation costs nothing on the simulated timeline — it only bounds
// how long a dead request can hold a worker.
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
	default:
		return runMachineJob(ctx, spec)
	}
}

// runExperiment runs a paper experiment in quick mode. Unlike program
// jobs, experiment jobs are not interruptible between slices (the
// experiment drivers own their machines), so they rely on quick-mode scale
// to stay bounded.
func runExperiment(expID string) (*RunResult, error) {
	e, ok := experiments.Lookup(expID)
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown experiment %q", expID)
	}
	r := e.Run(experiments.Options{Quick: true})
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
		// Every direct fault already names the backend.
		return nil, errf(http.StatusUnprocessableEntity, "%v", err)
	}
	out := &RunResult{Machine: spec.Machine, Stats: map[string]uint64{
		"fired": x.Fired(),
	}}
	for _, v := range res {
		out.Results = append(out.Results, v.String())
	}
	return out, nil
}

// buildMachine builds spec's machine from the conformance fleet with the
// service's configurations.
func buildMachine(spec *JobSpec) (conformance.Machine, error) {
	c := spec.Config
	if spec.Machine == "ttda" {
		prog, args, err := compileID(spec)
		if err != nil {
			return nil, err
		}
		plan, err := graph.Compile(prog)
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "ttda: %v", err)
		}
		return conformance.NewTTDA(core.Config{PEs: c.PEs, NetLatency: sim.Cycle(c.NetLatency)}, plan, args), nil
	}
	prog, err := vn.Assemble(spec.Program)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "assemble vnasm: %v", err)
	}
	switch spec.Machine {
	case "vn":
		return conformance.NewVN(prog, c.Contexts, sim.Cycle(c.MemLatency)), nil
	case "cmmp":
		return conformance.NewCmmp(cmmp.Config{Processors: 2, Banks: 2}, prog), nil
	case "cmstar":
		return conformance.NewCmstar(cmstar.Config{Clusters: 8, CoresPerCluster: 1, ClusterWords: 32, HopLatency: 3}, prog), nil
	case "ultra":
		return conformance.NewUltra(ultra.Config{LogProcessors: 2, Combining: c.Combining}, prog), nil
	case "hep":
		return conformance.NewHEP(hep.Config{Processors: 2, ContextsPerCore: 1, MemLatency: 4}, prog), nil
	}
	return nil, errf(http.StatusNotFound, "unknown machine %q", spec.Machine)
}

// runMachineJob runs spec's fleet machine in slices of at most
// sliceCycles, checking max_cycles and the request context between
// slices. Context errors are returned bare so the HTTP layer can tell a
// gone client (499) from a per-request timeout (504).
func runMachineJob(ctx context.Context, spec *JobSpec) (*RunResult, error) {
	m, err := buildMachine(spec)
	if err != nil {
		return nil, err
	}
	limit := spec.Config.MaxCycles
	for total := uint64(0); ; {
		budget := min(uint64(sliceCycles), limit-total)
		done, err := m.Run(sim.Cycle(budget))
		if err != nil {
			return nil, errf(http.StatusUnprocessableEntity, "%s: %v", spec.Machine, err)
		}
		if done {
			break
		}
		if total += budget; total >= limit {
			return nil, errf(http.StatusUnprocessableEntity, "program did not finish within max_cycles=%d", limit)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s := m.Snapshot()
	out := &RunResult{Machine: spec.Machine, Cycles: s.Cycles, Engine: &s.Engine}
	if t, ok := m.(*conformance.TTDA); ok {
		out.Stats = map[string]uint64{}
		for _, v := range t.Results() {
			out.Results = append(out.Results, v.String())
		}
	} else {
		out.Result = &s.Result
		out.Stats = map[string]uint64{"busy": s.Busy, "idle": s.Idle, "mem_ops": s.MemOps,
			"mem_wait": s.MemWait, "switches": s.Switches, "retired": s.Retired}
	}
	for i, name := range conformance.ExtraNames[spec.Machine] {
		out.Stats[name] = s.Extra[i]
	}
	return out, nil
}
