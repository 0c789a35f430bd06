// Package experiments contains the reproduction harness: one experiment
// per figure or quantitative claim in the paper, as indexed in DESIGN.md.
// Each experiment builds its machines from the substrate packages, sweeps
// the parameter the paper's argument turns on, and renders the series as
// text tables. cmd/critique-bench prints them; bench_test.go wraps them as
// benchmarks; EXPERIMENTS.md records paper-claim versus measured shape.
package experiments

import (
	"fmt"

	"repro/internal/metrics"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for use in tests and benchmarks.
	Quick bool
	// Shards > 1 runs the shardable machines (TTDA, C.mmp, Cm*,
	// Ultracomputer, HEP) on the conservative parallel kernel with that
	// many shards. Results are bit-identical to sequential runs, so every
	// experiment table and finding is unchanged; only wall time moves.
	Shards int
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

// All runs every experiment in order.
func All(opt Options) []Result {
	return runAll(opt,
		E1LatencyTolerance,
		E2ContextCounts,
		E3CacheCoherence,
		E4ReadBeforeWrite,
		E5Trapezoid,
		E6PipelineAnatomy,
		E7Cmmp,
		E8Cmstar,
		E9FetchAndAdd,
		E10ConnectionMachine,
		E11Emulator,
		E12VLIW,
		E13ParallelismGrail,
		E14ConformanceSweep,
	)
}

// runAll runs each experiment in order.
func runAll(opt Options, fns ...func(Options) Result) []Result {
	out := make([]Result, 0, len(fns))
	for _, fn := range fns {
		out = append(out, fn(opt))
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
