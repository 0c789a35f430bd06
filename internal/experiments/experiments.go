// Package experiments contains the reproduction harness: one experiment
// per figure or quantitative claim in the paper, as indexed in DESIGN.md.
// Each experiment builds its machines from the substrate packages, sweeps
// the parameter the paper's argument turns on, and renders the series as
// text tables. cmd/critique-bench prints them; bench_test.go wraps them as
// benchmarks; EXPERIMENTS.md records paper-claim versus measured shape.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for use in tests and benchmarks.
	Quick bool
	// SweepWorkers bounds the parallel sweep runner's worker pool for
	// each experiment's parameter sweep (internal/sweep); <= 0 means
	// GOMAXPROCS. Results are deterministic at any setting.
	SweepWorkers int
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Anchor string // where in the paper the claim lives
	Claim  string // the paper's claim, paraphrased
	Tables []*metrics.Table
	// Finding is the observed one-line shape, for EXPERIMENTS.md.
	Finding string
	// Err reports an experiment that failed to run.
	Err error
}

// String renders the full experiment report.
func (r Result) String() string {
	s := fmt.Sprintf("== %s: %s\n   anchor: %s\n   claim:  %s\n", r.ID, r.Title, r.Anchor, r.Claim)
	if r.Err != nil {
		return s + fmt.Sprintf("   ERROR: %v\n", r.Err)
	}
	for _, t := range r.Tables {
		s += "\n" + t.String()
	}
	s += "\nfinding: " + r.Finding + "\n"
	return s
}

// Experiment is one entry of the suite: its ID and the function that
// runs it.
type Experiment struct {
	ID  string
	Run func(Options) Result
}

// Ablation reports whether e is an A-series design ablation rather than
// a paper experiment.
func (e Experiment) Ablation() bool { return strings.HasPrefix(e.ID, "A") }

// List is the whole suite in report order: the paper experiments E1–E14,
// then the A-series ablations. critique-bench selects from it and serve
// looks experiment jobs up in it.
var List = []Experiment{
	{"E1", E1LatencyTolerance}, {"E2", E2ContextCounts},
	{"E3", E3CacheCoherence}, {"E4", E4ReadBeforeWrite},
	{"E5", E5Trapezoid}, {"E6", E6PipelineAnatomy},
	{"E7", E7Cmmp}, {"E8", E8Cmstar},
	{"E9", E9FetchAndAdd}, {"E10", E10ConnectionMachine},
	{"E11", E11Emulator}, {"E12", E12VLIW},
	{"E13", E13ParallelismGrail}, {"E14", E14ConformanceSweep},
	{"A1", A1Optimizer}, {"A2", A2MatchCapacity},
	{"A3", A3PipelineBandwidth}, {"A4", A4Topology},
	{"A5", A5OpTiming},
}

// Lookup returns the entry of List named id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range List {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All runs every paper experiment in order.
func All(opt Options) []Result { return runList(opt, false) }

// runList runs, in order, the entries of List that are ablations (or
// that are not).
func runList(opt Options, ablations bool) []Result {
	var out []Result
	for _, e := range List {
		if e.Ablation() == ablations {
			out = append(out, e.Run(opt))
		}
	}
	return out
}

// pick returns q when quick, full otherwise.
func pick(opt Options, full, q []int) []int {
	if opt.Quick {
		return q
	}
	return full
}
