package graph_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/emulator"
	"repro/internal/graph"
	"repro/internal/token"
)

// faultProgram builds a one-block program whose entry feeds port 0 of an
// ADD through arcs entry→ADD; the ADD's port 1 never receives a token.
func faultProgram(t *testing.T, name string, arcs int) *graph.Program {
	t.Helper()
	b := graph.NewBuilder(name)
	bb := b.NewBlock("main", 1)
	add := bb.Op(graph.OpAdd, "")
	ret := bb.Op(graph.OpReturn, "")
	for i := 0; i < arcs; i++ {
		bb.Connect(bb.Entry(0), add, 0)
	}
	bb.Connect(add, ret, 0)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestMatchFaultsOnEveryExecutor pins the waiting store's two failure
// outcomes on each executor that pairs operands in a graph.MatchTable: a
// token whose partner never arrives is reported as stranded at the end of
// the run, and a second token on an occupied port is a duplicate.
func TestMatchFaultsOnEveryExecutor(t *testing.T) {
	executors := []struct {
		name string
		run  func(*graph.Program) error
		// stranded is the executor's end-of-run message for one parked
		// token; duplicate prefixes the shared duplicate-token message.
		stranded, duplicate string
	}{
		{"interp", func(p *graph.Program) error {
			_, err := graph.NewInterp(p).Run(token.Int(1))
			return err
		}, "finished with 1 unmatched tokens", "graph: "},
		{"ttda/pes=1", func(p *graph.Program) error {
			_, err := core.NewMachine(core.Config{PEs: 1}, p).Run(10_000, token.Int(1))
			return err
		}, "halted with 1 unmatched tokens", "core: "},
		{"ttda/pes=4", func(p *graph.Program) error {
			_, err := core.NewMachine(core.Config{PEs: 4}, p).Run(10_000, token.Int(1))
			return err
		}, "halted with 1 unmatched tokens", "core: "},
		{"emulator/dim=0", func(p *graph.Program) error {
			_, err := emulator.New(emulator.Config{Dim: 0}, p).Run(token.Int(1))
			return err
		}, "1 unmatched tokens stranded", "emulator: "},
		{"emulator/dim=2", func(p *graph.Program) error {
			_, err := emulator.New(emulator.Config{Dim: 2}, p).Run(token.Int(1))
			return err
		}, "1 unmatched tokens stranded", "emulator: "},
	}
	stranded := faultProgram(t, "stranded", 1)
	duplicate := faultProgram(t, "duplicate", 2)
	const dupMsg = "duplicate token at (u=0,c=0,s=1,i=1) port 0"
	for _, ex := range executors {
		t.Run(ex.name+"/stranded", func(t *testing.T) {
			if err := ex.run(stranded); err == nil || !strings.Contains(err.Error(), ex.stranded) {
				t.Fatalf("got %v, want an error containing %q", err, ex.stranded)
			}
		})
		t.Run(ex.name+"/duplicate", func(t *testing.T) {
			if err := ex.run(duplicate); err == nil || !strings.Contains(err.Error(), ex.duplicate+dupMsg) {
				t.Fatalf("got %v, want an error containing %q", err, ex.duplicate+dupMsg)
			}
		})
	}
}

// argIndexProgram builds a program that passes Validate but whose SEND-ARG
// sends argument 1 into a context of block "one", which has one entry:
// Validate checks ArgIndex only against the instruction's static Target,
// here block "two" with two entries, while the handle names "one".
func argIndexProgram(t *testing.T) *graph.Program {
	t.Helper()
	b := graph.NewBuilder("argindex")
	main := b.NewBlock("main", 1)
	one := b.NewBlock("one", 1)
	two := b.NewBlock("two", 2)
	one.Connect(one.Entry(0), one.Op(graph.OpReturn, ""), 0)
	for j := 0; j < 2; j++ {
		two.Connect(two.Entry(j), two.Op(graph.OpSink, ""), 0)
	}
	getc := main.Emit(graph.Instruction{Op: graph.OpGetContext, Target: one.ID()})
	send := main.Emit(graph.Instruction{Op: graph.OpSendArg, Target: two.ID(), ArgIndex: 1})
	ret := main.Op(graph.OpReturn, "")
	main.Connect(main.Entry(0), getc, 0)
	main.Connect(main.Entry(0), send, 1)
	main.Connect(getc, send, 0)
	main.ConnectReturn(getc, ret, 0)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunFaultsOnEveryExecutor pins two faults a program can reach on
// every executor that runs MiniID: a SEND-ARG past its callee's entries,
// and a program with no code blocks. Each executor must return its own
// fault; a panic in one of the emulator's node goroutines would end the
// whole process instead.
func TestRunFaultsOnEveryExecutor(t *testing.T) {
	const argFault = `arg 1 exceeds "one" entries`
	executors := []struct {
		name string
		run  func(*graph.Program) error
		// argFault is the executor's text for the SEND-ARG fault.
		argFault string
	}{
		{"interp", func(p *graph.Program) error {
			_, err := graph.NewInterp(p).Run(token.Int(1))
			return err
		}, argFault},
		{"direct", func(p *graph.Program) error {
			_, err := direct.New(p).Run(token.Int(1))
			return err
		}, argFault},
		{"ttda/pes=1", func(p *graph.Program) error {
			_, err := core.NewMachine(core.Config{PEs: 1}, p).Run(10_000, token.Int(1))
			return err
		}, "arg 1 out of range"},
		{"ttda/pes=4", func(p *graph.Program) error {
			_, err := core.NewMachine(core.Config{PEs: 4}, p).Run(10_000, token.Int(1))
			return err
		}, "arg 1 out of range"},
		{"emulator/dim=0", func(p *graph.Program) error {
			_, err := emulator.New(emulator.Config{Dim: 0}, p).Run(token.Int(1))
			return err
		}, argFault},
		{"emulator/dim=2", func(p *graph.Program) error {
			_, err := emulator.New(emulator.Config{Dim: 2}, p).Run(token.Int(1))
			return err
		}, argFault},
	}
	argIndex, noBlocks := argIndexProgram(t), &graph.Program{Name: "x"}
	for _, ex := range executors {
		for _, c := range []struct {
			name string
			prog *graph.Program
			want string
		}{
			{"arg-index", argIndex, ex.argFault},
			{"no-blocks", noBlocks, `program "x" has no code blocks`},
		} {
			t.Run(ex.name+"/"+c.name, func(t *testing.T) {
				if err := ex.run(c.prog); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("got %v, want an error containing %q", err, c.want)
				}
			})
		}
	}
}
