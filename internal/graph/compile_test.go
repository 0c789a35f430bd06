package graph

import (
	"strings"
	"testing"

	"repro/internal/token"
)

// buildConstDiv builds main(x) = 6/0 computed from two CONST generators,
// both triggered by the entry token. The division by zero is latent: it
// faults at run time, and constant folding must refuse to bake it in.
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

// TestFoldRejectsConstantDivisionByZero: folding a fully-constant division
// by zero must come back as a clean Compile error, never a panic and never
// a plan with the fault baked in. Without the folding pass the same
// program compiles fine (and faults at run time, as written).
func TestFoldRejectsConstantDivisionByZero(t *testing.T) {
	p := buildConstDiv(t)
	if _, err := Compile(p, WithConstantFolding()); err == nil {
		t.Fatal("Compile(WithConstantFolding) accepted a constant division by zero")
	} else if !strings.Contains(err.Error(), "zero") {
		t.Fatalf("error does not name the fault: %v", err)
	}
	cg, err := Compile(p)
	if err != nil {
		t.Fatalf("Compile without folding rejected the program: %v", err)
	}
	if _, err := NewInterpPlan(cg).Run(token.Int(1)); err == nil {
		t.Fatal("running the unfolded program did not fault on 6/0")
	}
}

// TestFoldAbsorbsLiteralsAndPreservesResult: folding (x*10)+(6-2) must
// leave the answer bit-identical while reducing firings, and must leave
// the caller's Program untouched (passes run on a private clone).
func TestFoldAbsorbsLiteralsAndPreservesResult(t *testing.T) {
	b := NewBuilder("fold")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	mul := bb.OpLit(OpMul, token.Int(10), 1, "x*10")
	c6 := bb.OpLit(OpConst, token.Int(6), 1, "6")
	sub := bb.OpLit(OpSub, token.Int(2), 1, "6-2")
	add := bb.Op(OpAdd, "")
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, mul, 0)
	bb.Connect(e, c6, 0)
	bb.Connect(c6, sub, 0)
	bb.Connect(mul, add, 0)
	bb.Connect(sub, add, 1)
	bb.Connect(add, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	plain, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := Compile(p, WithConstantFolding())
	if err != nil {
		t.Fatal(err)
	}
	if folded.Prog == p {
		t.Fatal("folding mutated the caller's program instead of a clone")
	}

	ip, fp := NewInterpPlan(plain), NewInterpPlan(folded)
	rp, err1 := ip.Run(token.Int(7))
	rf, err2 := fp.Run(token.Int(7))
	if err1 != nil || err2 != nil {
		t.Fatalf("run errors: %v / %v", err1, err2)
	}
	if len(rp) != 1 || len(rf) != 1 || !rp[0].Equal(rf[0]) || rp[0].I != 74 {
		t.Fatalf("results diverged: plain %v, folded %v (want 74)", rp, rf)
	}
	// Folding never removes firings (demoted CONSTs still absorb their
	// trigger) but it removes arcs, so fewer tokens move.
	if fp.Tokens() >= ip.Tokens() {
		t.Fatalf("folding did not reduce token traffic: %d -> %d", ip.Tokens(), fp.Tokens())
	}
	clone := p.Clone()
	fs, err := FoldConstants(clone)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Folded == 0 || fs.LiteralsAbsorbed == 0 || fs.Sunk == 0 {
		t.Fatalf("fold stats missed a rewrite class: %+v", fs)
	}
	// The caller's program still names two token operands on the add.
	if p.Entry().Instr(add).HasLiteral {
		t.Fatal("caller's program gained a literal: passes leaked out of the clone")
	}
}

// TestFoldLeavesConstCycleUnfolded: CONST generators that trigger each
// other form a constant cycle no execution order can fold away. The pass
// must terminate, leave the cycle intact (or let dead-arc elimination
// remove it when unreachable), and the result must still validate.
func TestFoldLeavesConstCycleUnfolded(t *testing.T) {
	b := NewBuilder("cycle")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, ret, 0)
	// Unreachable two-node CONST cycle, each triggering the other.
	ca := bb.OpLit(OpConst, token.Int(1), 1, "cycle a")
	cb := bb.OpLit(OpConst, token.Int(2), 1, "cycle b")
	bb.Connect(ca, cb, 0)
	bb.Connect(cb, ca, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	folded, err := Compile(p, WithConstantFolding())
	if err != nil {
		t.Fatalf("folding a constant cycle failed: %v", err)
	}
	res, err := NewInterpPlan(folded).Run(token.Int(42))
	if err != nil || len(res) != 1 || res[0].I != 42 {
		t.Fatalf("folded cycle program misbehaved: %v, %v", res, err)
	}

	// With dead-arc elimination stacked on top, the unreachable cycle is
	// excised entirely.
	both, err := Compile(p, WithConstantFolding(), WithDeadArcElimination())
	if err != nil {
		t.Fatal(err)
	}
	mb := both.Prog.Entry()
	if mb.Instr(ca).Op != OpNop || mb.Instr(cb).Op != OpNop {
		t.Fatalf("dead-arc pass left the unreachable cycle: %s / %s", mb.Instr(ca).Op, mb.Instr(cb).Op)
	}
}

// TestDeadArcDropsArcsFromDeadIntoLiveEntry: the subtle dead-arc case is a
// dead statement aiming an arc at a LIVE entry statement. Dropping only
// dead statements' incoming arcs would miss it; the pass must drop dead
// statements' outgoing lists too, or the entry would receive a phantom
// operand count.
func TestDeadArcDropsArcsFromDeadIntoLiveEntry(t *testing.T) {
	b := NewBuilder("deadentry")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	neg := bb.OpLit(OpSub, token.Int(0), 0, "0-x")
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, neg, 1)
	bb.Connect(neg, ret, 0)
	// Dead statement with an arc into the live entry statement.
	dead := bb.OpLit(OpConst, token.Int(9), 1, "dead")
	bb.Instr(dead).Dests = append(bb.Instr(dead).Dests, Dest{Stmt: e, Port: 0})
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	stats := EliminateDeadArcs(p)
	if stats.StatementsRemoved != 1 {
		t.Fatalf("StatementsRemoved = %d, want 1", stats.StatementsRemoved)
	}
	if stats.ArcsRemoved != 1 {
		t.Fatalf("ArcsRemoved = %d, want 1 (the dead arc into the live entry)", stats.ArcsRemoved)
	}
	if p.Entry().Instr(dead).Op != OpNop {
		t.Fatalf("dead statement not NOPed: %s", p.Entry().Instr(dead).Op)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid after dead-arc elimination: %v", err)
	}
	res, err := NewInterp(p).Run(token.Int(5))
	if err != nil || len(res) != 1 || res[0].I != -5 {
		t.Fatalf("cleaned program misbehaved: %v, %v", res, err)
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
