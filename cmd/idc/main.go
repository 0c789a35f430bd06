// Command idc compiles MiniID source to a tagged-token dataflow graph and
// prints it — the textual analogue of the paper's Figure 2-2. With -run it
// also executes the program on the reference interpreter.
//
// Usage:
//
//	idc [-run] [-args "1 2 3"] file.id
//	idc -demo            # compile and dump the paper's trapezoid program
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/workload"
)

func main() {
	run := flag.Bool("run", false, "execute the program on the reference interpreter")
	argsFlag := flag.String("args", "", "space-separated numeric arguments for -run")
	demo := flag.Bool("demo", false, "use the paper's Figure 2-2 trapezoid program")
	stats := flag.Bool("stats", false, "print opcode composition instead of the full dump")
	out := flag.String("o", "", "write the compiled program as a TTDA object file")
	check := flag.Bool("check", false, "run the static type checker and report diagnostics")
	dot := flag.Bool("dot", false, "print the graph in Graphviz DOT format instead of text")
	flag.Parse()

	var src string
	switch {
	case *demo:
		src = workload.TrapezoidID
		if *argsFlag == "" {
			*argsFlag = "0.0 1.0 100.0"
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: idc [-run] [-args \"...\"] file.id | idc -demo")
		os.Exit(2)
	}

	if *check {
		f, err := id.Parse(src)
		if err != nil {
			fatal(err)
		}
		diags := id.Check(f)
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		fmt.Println("check: no type errors")
	}
	prog, err := id.Compile(src)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		data, err := prog.MarshalBinary()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes, %d instructions)\n", *out, len(data), prog.NumInstructions())
		if !*run && !*stats {
			return
		}
	}
	switch {
	case *stats:
		fmt.Printf("program %q: %d blocks, %d instructions\n", prog.Name, len(prog.Blocks), prog.NumInstructions())
		for _, oc := range prog.Stats() {
			fmt.Printf("  %-8s %d\n", oc.Op, oc.N)
		}
	case *dot:
		fmt.Print(prog.Dot())
	default:
		fmt.Print(prog.Dump())
	}

	if !*run {
		return
	}
	args, err := cli.ParseArgs(*argsFlag)
	if err != nil {
		fatal(err)
	}
	runArgs, err := id.EntryArgs(prog, args)
	if err != nil {
		fatal(err)
	}
	it := graph.NewInterp(prog)
	res, err := it.Run(runArgs...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult: %v\n", res)
	fmt.Printf("fired %d instructions over %d waves (max parallelism %d)\n",
		it.Fired(), it.Depth(), it.MaxParallelism())
	total, peak := it.DeferredReads()
	if total > 0 {
		fmt.Printf("deferred reads: %d (peak outstanding %d)\n", total, peak)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idc:", err)
	os.Exit(1)
}
