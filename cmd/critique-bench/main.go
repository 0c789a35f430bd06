// Command critique-bench runs the full reproduction suite: experiments
// E1-E12, one per figure or quantitative claim of the paper (see DESIGN.md
// for the index), and prints their tables and findings. The recorded
// output lives in EXPERIMENTS.md.
//
// Usage:
//
//	critique-bench             # full sweeps (a few minutes)
//	critique-bench -quick      # reduced sweeps (seconds)
//	critique-bench -only E4,E9
//	critique-bench -markdown   # emit the EXPERIMENTS.md body
//	critique-bench -conformance 25     # cross-machine conformance smoke run
//	critique-bench -checkpoint-every 2000      # split-run self-check
//	critique-bench -resume CKPT.bin            # resume and verify the split run
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E9,A2)")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-formatted output")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	ablations := flag.Bool("ablations", true, "include the A-series design ablations")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	confSmoke := flag.Int("conformance", 0, "run N seeds of the cross-machine conformance harness and exit (nonzero exit on any violation)")
	shards := flag.Int("shards", 0, "run shardable machines on the conservative parallel kernel with N shards (0 = sequential; results are bit-identical either way)")
	sweepWorkers := flag.Int("sweep-workers", 0, "bound the parallel sweep runner's worker pool for experiment and conformance sweeps (<= 0 = GOMAXPROCS; results are identical at any setting)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "run the kernel workload pausing every N cycles to checkpoint, verify the split run is cycle-for-cycle identical to a straight run, and exit")
	ckptOut := flag.String("checkpoint-out", "critique-bench.ckpt", "checkpoint file for -checkpoint-every")
	resumeFrom := flag.String("resume", "", "resume the kernel workload from this checkpoint file, verify against a straight run, and exit")
	flag.Parse()

	if *ckptEvery > 0 || *resumeFrom != "" {
		if err := checkpointSelfCheck(*ckptEvery, *ckptOut, *resumeFrom); err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *confSmoke > 0 {
		rep := conformance.SweepOpts(*confSmoke, *sweepWorkers)
		fmt.Println(rep.Summary())
		if len(rep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "critique-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "critique-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "critique-bench:", err)
			}
		}()
	}

	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		s = strings.TrimSpace(strings.ToUpper(s))
		if s != "" {
			want[s] = true
		}
	}

	results := experiments.All(experiments.Options{Quick: *quick, Shards: *shards, SweepWorkers: *sweepWorkers})
	if *ablations {
		results = append(results, experiments.Ablations(experiments.Options{Quick: *quick, SweepWorkers: *sweepWorkers})...)
	}
	failed := 0
	var selected []experiments.Result
	for _, r := range results {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		selected = append(selected, r)
		if r.Err != nil {
			failed++
		}
	}
	switch {
	case *jsonOut:
		printJSON(selected)
	case *markdown:
		for _, r := range selected {
			printMarkdown(r)
		}
	default:
		for _, r := range selected {
			fmt.Println(r)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "critique-bench: %d experiments failed\n", failed)
		os.Exit(1)
	}
}

// checkpointSelfCheck demonstrates and verifies split-run bit-identity on
// the kernel workload (matmul(4) on 8 PEs): a run paused every `every`
// cycles — or resumed from a prior checkpoint file — must match a
// straight uninterrupted run cycle-for-cycle, statistic-for-statistic,
// and byte-for-byte in its end-of-run checkpoint.
func checkpointSelfCheck(every uint64, out, resumeFrom string) error {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		return err
	}
	build := func() *core.Machine { return core.NewMachine(core.Config{PEs: 8}, prog) }
	args := []token.Value{token.Int(4)}

	ref := build()
	if _, err := ref.Run(1_000_000_000, args...); err != nil {
		return err
	}
	refBytes := sim.Checkpoint(ref)

	m := build()
	if resumeFrom != "" {
		data, err := os.ReadFile(resumeFrom)
		if err != nil {
			return err
		}
		if err := sim.Restore(m, data); err != nil {
			return fmt.Errorf("resume %s: %v", resumeFrom, err)
		}
		fmt.Printf("resumed from %s at cycle %d\n", resumeFrom, m.Engine().Now())
	}
	wrote := 0
	for {
		_, err := m.Run(splitBudget(every), args...)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "did not finish") {
			return err
		}
		if every == 0 {
			return fmt.Errorf("resumed run did not finish: %v", err)
		}
		if werr := os.WriteFile(out, sim.Checkpoint(m), 0o644); werr != nil {
			return werr
		}
		wrote++
	}
	if got, want := m.Summarize().Cycles, ref.Summarize().Cycles; got != want {
		return fmt.Errorf("split run took %d cycles, straight run %d — bit-identity broken", got, want)
	}
	if !bytes.Equal(sim.Checkpoint(m), refBytes) {
		return fmt.Errorf("split run end state differs from straight run — bit-identity broken")
	}
	if wrote > 0 {
		fmt.Printf("wrote %d checkpoints to %s\n", wrote, out)
	}
	fmt.Printf("checkpoint self-check passed: split run matches straight run (%d cycles, %d-byte end state)\n",
		ref.Summarize().Cycles, len(refBytes))
	return nil
}

// splitBudget is the per-Run cycle budget of the self-check loop: `every`
// when periodic checkpointing is on, effectively unbounded when only
// resuming.
func splitBudget(every uint64) sim.Cycle {
	if every == 0 {
		return 1_000_000_000
	}
	return sim.Cycle(every)
}

// jsonResult shadows experiments.Result with a marshalable error field.
type jsonResult struct {
	ID      string           `json:"id"`
	Title   string           `json:"title"`
	Anchor  string           `json:"anchor"`
	Claim   string           `json:"claim"`
	Tables  []*metrics.Table `json:"tables"`
	Finding string           `json:"finding,omitempty"`
	Error   string           `json:"error,omitempty"`
}

func printJSON(results []experiments.Result) {
	out := make([]jsonResult, 0, len(results))
	for _, r := range results {
		jr := jsonResult{ID: r.ID, Title: r.Title, Anchor: r.Anchor,
			Claim: r.Claim, Tables: r.Tables, Finding: r.Finding}
		if r.Err != nil {
			jr.Error = r.Err.Error()
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "critique-bench:", err)
		os.Exit(1)
	}
}

func printMarkdown(r experiments.Result) {
	fmt.Printf("## %s — %s\n\n", r.ID, r.Title)
	fmt.Printf("*Paper anchor:* %s\n\n", r.Anchor)
	fmt.Printf("*Paper claim:* %s\n\n", r.Claim)
	if r.Err != nil {
		fmt.Printf("**ERROR:** %v\n\n", r.Err)
		return
	}
	for _, t := range r.Tables {
		fmt.Println("```")
		fmt.Print(t.String())
		fmt.Println("```")
		fmt.Println()
	}
	fmt.Printf("*Measured:* %s\n\n", r.Finding)
}
