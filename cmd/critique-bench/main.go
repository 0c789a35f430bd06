// Command critique-bench runs the full reproduction suite: experiments
// E1-E14, one per figure or quantitative claim of the paper (see DESIGN.md
// for the index), and the A-series ablations, and prints their tables and
// findings. The recorded output lives in EXPERIMENTS.md.
//
// Usage:
//
//	critique-bench             # full sweeps (a few minutes)
//	critique-bench -quick      # reduced sweeps (seconds)
//	critique-bench -only E4,E9  # run only these (an unknown ID exits 2)
//	critique-bench -markdown   # emit the EXPERIMENTS.md body
//	critique-bench -conformance 25     # cross-machine conformance smoke run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	quick := flag.Bool("quick", false, "reduced parameter sweeps")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E9,A2)")
	markdown := flag.Bool("markdown", false, "emit EXPERIMENTS.md-formatted output")
	jsonOut := flag.Bool("json", false, "emit results as JSON")
	ablations := flag.Bool("ablations", true, "include the A-series design ablations when -only is not set")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	confSmoke := flag.Int("conformance", 0, "run N seeds of the cross-machine conformance harness and exit (nonzero exit on any violation)")
	sweepWorkers := flag.Int("sweep-workers", 0, "bound the parallel sweep runner's worker pool for experiment and conformance sweeps (<= 0 = GOMAXPROCS; results are identical at any setting)")
	flag.Parse()

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

	// -only names entries of experiments.List; only those run.
	want := map[string]bool{}
	for _, s := range strings.Split(*only, ",") {
		s = strings.TrimSpace(strings.ToUpper(s))
		if s == "" {
			continue
		}
		if _, ok := experiments.Lookup(s); !ok {
			fmt.Fprintf(os.Stderr, "critique-bench: -only: unknown experiment %q\n", s)
			os.Exit(2)
		}
		want[s] = true
	}

	opt := experiments.Options{Quick: *quick, SweepWorkers: *sweepWorkers}
	failed := 0
	var selected []experiments.Result
	for _, e := range experiments.List {
		run := want[e.ID]
		if len(want) == 0 {
			run = *ablations || !e.Ablation()
		}
		if !run {
			continue
		}
		r := e.Run(opt)
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
