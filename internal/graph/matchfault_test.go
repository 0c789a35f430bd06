package graph_test

import (
	"strings"
	"testing"

	"repro/internal/core"
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
