// Quickstart: compile the paper's Figure 2-2 program (trapezoidal-rule
// integration written in MiniID) and run it three ways — on the reference
// interpreter, on the cycle-accurate tagged-token machine, and on the
// untimed hypercube emulation facility — then check that all three agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

func main() {
	// 1. Compile ID source to a tagged-token dataflow graph.
	prog, err := id.Compile(workload.TrapezoidID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d code blocks, %d instructions\n", len(prog.Blocks), prog.NumInstructions())
	fmt.Printf("loop operators: %d L, %d D, %d D-1, %d L-1 (Figure 2-2's context machinery)\n\n",
		prog.CountOp(graph.OpL), prog.CountOp(graph.OpD), prog.CountOp(graph.OpDInv), prog.CountOp(graph.OpLInv))

	// Integrate f(x)=x^2 over [0,1] with 100 intervals; exact answer 1/3.
	args := []token.Value{token.Float(0), token.Float(1), token.Float(100)}

	// 2. Reference interpreter: idealized dataflow, gives the answer plus
	// the program's ideal parallelism profile.
	it := graph.NewInterp(prog)
	ires, err := it.Run(args...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("interpreter:  %v  (critical path %d waves, max parallelism %d)\n",
		ires[0], it.Depth(), it.MaxParallelism())

	// 3. Cycle-accurate tagged-token machine, 4 PEs.
	m := core.NewMachine(core.Config{PEs: 4}, prog)
	mres, err := m.Run(10_000_000, args...)
	if err != nil {
		log.Fatal(err)
	}
	s := m.Summarize()
	fmt.Printf("TTDA (4 PEs): %v  (%d cycles, ALU utilization %.2f)\n", mres[0], s.Cycles, s.ALUUtilization)

	// 4. Emulation facility: 32 goroutine PEs on a 5-cube.
	f := emulator.New(emulator.Config{Dim: 5}, prog)
	fres, err := f.Run(args...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emulator:     %v  (%d messages over the cube)\n", fres[0], f.Messages.Load())

	if !ires[0].Equal(mres[0]) || !ires[0].Equal(fres[0]) {
		log.Fatal("substrates disagree!")
	}
	fmt.Println("\nall three substrates agree ✓")
}
