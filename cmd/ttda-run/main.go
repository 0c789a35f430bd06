// Command ttda-run executes a MiniID program on the cycle-accurate
// tagged-token dataflow machine and prints the machine statistics of
// Figures 2-3/2-4: ALU utilization, waiting-matching occupancy, token
// class mix, and network traffic.
//
// Usage:
//
//	ttda-run [-pes 8] [-latency 2] [-args "0 1 100"] file.id
//	ttda-run -demo trapezoid|matmul|fib|pc|wavefront|mergesort|collatz
//	ttda-run -demo matmul -checkpoint-every 1000 -checkpoint-out m.ckpt
//	ttda-run -demo matmul -resume m.ckpt
//
// A run split across checkpoint/resume is cycle-for-cycle identical to a
// straight run: the checkpoint carries the engine clock, wake queue, and
// every machine structure, so statistics and results match exactly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

var demos = map[string]struct {
	src  string
	args string
}{
	"trapezoid": {workload.TrapezoidID, "0.0 1.0 100.0"},
	"matmul":    {workload.MatMulID, "6"},
	"fib":       {workload.FibID, "15"},
	"pc":        {workload.ProducerConsumerID, "64"},
	"wavefront": {workload.WavefrontID, "12"},
	"mergesort": {workload.MergeSortID, "16"},
	"collatz":   {workload.CollatzID, "27"},
}

func main() {
	pes := flag.Int("pes", 8, "number of processing elements")
	latency := flag.Uint64("latency", 2, "network latency in cycles")
	argsFlag := flag.String("args", "", "space-separated numeric arguments")
	demo := flag.String("demo", "", "run a built-in workload: trapezoid, matmul, fib, pc, wavefront, mergesort, collatz")
	limit := flag.Uint64("limit", 1_000_000_000, "cycle limit")
	perPE := flag.Bool("per-pe", false, "print per-PE statistics")
	traceN := flag.Int("trace", 0, "record and print the last N machine events")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "write a checkpoint to -checkpoint-out every N cycles while running (0 = never)")
	ckptOut := flag.String("checkpoint-out", "ttda.ckpt", "checkpoint file for -checkpoint-every")
	resume := flag.String("resume", "", "resume from a checkpoint file (program, -pes, and -latency must match the saving run)")
	flag.Parse()

	var src string
	var obj *graph.Program
	switch {
	case *demo != "":
		d, ok := demos[*demo]
		if !ok {
			fatal(fmt.Errorf("unknown demo %q", *demo))
		}
		src = d.src
		if *argsFlag == "" {
			*argsFlag = d.args
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		// TTDA object files (from idc -o) load directly; anything else is
		// MiniID source.
		if len(data) >= 4 && string(data[:4]) == "TTDA" {
			obj, err = graph.UnmarshalProgram(data)
			if err != nil {
				fatal(err)
			}
		} else {
			src = string(data)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: ttda-run [-pes N] [-latency L] [-args \"...\"] file.id | ttda-run -demo NAME")
		os.Exit(2)
	}

	prog := obj
	if prog == nil {
		var err error
		prog, err = id.Compile(src)
		if err != nil {
			fatal(err)
		}
	}
	args, err := cli.ParseArgs(*argsFlag)
	if err != nil {
		fatal(err)
	}
	runArgs, err := id.EntryArgs(prog, args)
	if err != nil {
		fatal(err)
	}

	cfg := core.Config{PEs: *pes, NetLatency: sim.Cycle(*latency)}
	var tracer *core.Tracer
	if *traceN > 0 {
		tracer = core.NewTracer(*traceN)
		cfg.Trace = tracer
	}
	m := core.NewMachine(cfg, prog)
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			fatal(err)
		}
		if err := sim.Restore(m, data); err != nil {
			fatal(fmt.Errorf("resume %s: %v", *resume, err))
		}
		fmt.Printf("resumed from %s at cycle %d\n", *resume, m.Engine().Now())
	}
	res, err := runWithCheckpoints(m, sim.Cycle(*limit), *ckptEvery, *ckptOut, runArgs)
	if tracer != nil {
		tracer.Dump(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("program %q on %d PEs (network latency %d)\n", prog.Name, *pes, *latency)
	fmt.Printf("result: %v\n\n", res)
	fmt.Print(m.Summarize())
	ns := m.Network().Stats()
	fmt.Printf("network           %d delivered, mean latency %.1f cycles\n",
		ns.Delivered.Value(), ns.MeanLatency())

	if *perPE {
		fmt.Println("\nper-PE:")
		for i, ps := range m.PEStats() {
			fmt.Printf("  PE%-3d fired=%-8d util=%.3f match peak=%d\n",
				i, ps.Fired.Value(), ps.ALU.Fraction(), ps.MatchStoreOccupancy.Max())
		}
	}
}

// runWithCheckpoints drives the machine to completion, pausing every
// `every` cycles to write a checkpoint (atomically irrelevant here: the
// file is a debugging/restart artifact, and a torn write is rejected by
// Restore's framing). every == 0 is a plain straight-through run. The
// split run is cycle-for-cycle identical to a straight one: pausing and
// checkpointing never perturb machine state.
func runWithCheckpoints(m *core.Machine, limit sim.Cycle, every uint64, out string, args []token.Value) ([]token.Value, error) {
	if every == 0 {
		return m.Run(limit, args...)
	}
	wrote := 0
	for {
		res, err := m.Run(sim.Cycle(every), args...)
		if err == nil {
			if wrote > 0 {
				fmt.Printf("wrote %d checkpoints to %s\n", wrote, out)
			}
			return res, nil
		}
		if !errors.Is(err, sim.ErrLimit) {
			return nil, err
		}
		if m.Engine().Now() >= limit {
			return nil, fmt.Errorf("program did not finish within %d cycles", limit)
		}
		if werr := os.WriteFile(out, sim.Checkpoint(m), 0o644); werr != nil {
			return nil, werr
		}
		wrote++
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttda-run:", err)
	os.Exit(1)
}
