package graph

import (
	"testing"

	"repro/internal/token"
)

// buildConstDiv builds main(x) = 6/0 computed from two CONST generators,
// both triggered by the entry token. The division by zero is latent: it
// faults at run time, not at compile time.
func buildConstDiv(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("constdiv")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	c6 := bb.OpLit(OpConst, token.Int(6), 1, "6")
	c0 := bb.OpLit(OpConst, token.Int(0), 1, "0")
	div := bb.Op(OpDiv, "6/0")
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, c6, 0)
	bb.Connect(e, c0, 0)
	bb.Connect(c6, div, 0)
	bb.Connect(c0, div, 1)
	bb.Connect(div, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// TestConstantDivisionByZeroFaultsAtRunTime: Compile lowers the program as
// written, so a constant 6/0 compiles and faults when it runs.
func TestConstantDivisionByZeroFaultsAtRunTime(t *testing.T) {
	cg, err := Compile(buildConstDiv(t))
	if err != nil {
		t.Fatalf("Compile rejected the program: %v", err)
	}
	if _, err := NewInterpPlan(cg).Run(token.Int(1)); err == nil {
		t.Fatal("running the program did not fault on 6/0")
	}
}

// TestCompiledPlanShapes pins the plan invariants every engine relies on:
// dense kinds, destination NT fields matching the target instructions,
// match slots exactly covering two-operand statements, and predecessor
// arrays consistent with the arc structure.
func TestCompiledPlanShapes(t *testing.T) {
	p := buildConstDiv(t)
	cg, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cb := cg.Block(0)
	slots := map[int32]bool{}
	for s := range cb.Instrs {
		ci := &cb.Instrs[s]
		in := p.Entry().Instr(uint16(s))
		if ci.Op != in.Op || ci.NT != in.NT {
			t.Fatalf("stmt %d: plan (%s, nt=%d) != program (%s, nt=%d)", s, ci.Op, ci.NT, in.Op, in.NT)
		}
		for _, d := range ci.Dests {
			if want := p.Entry().Instr(d.Stmt).NT; d.NT != want {
				t.Fatalf("stmt %d dest %d: NT %d, want %d", s, d.Stmt, d.NT, want)
			}
		}
		if in.Op != OpNop && in.NT >= 2 {
			if ci.MatchSlot < 0 || slots[ci.MatchSlot] {
				t.Fatalf("stmt %d: bad or duplicate match slot %d", s, ci.MatchSlot)
			}
			slots[ci.MatchSlot] = true
		} else if ci.MatchSlot != -1 {
			t.Fatalf("single-operand stmt %d has match slot %d", s, ci.MatchSlot)
		}
	}
	if len(slots) != cb.Slots {
		t.Fatalf("Slots = %d, assigned %d", cb.Slots, len(slots))
	}
}
