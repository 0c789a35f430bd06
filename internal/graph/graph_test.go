package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

// buildArith builds (a+b)*(a-b) as a two-argument entry block.
func buildArith(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("arith")
	bb := b.NewBlock("main", 2)
	ea, eb := bb.Entry(0), bb.Entry(1)
	add := bb.Op(OpAdd, "a+b")
	sub := bb.Op(OpSub, "a-b")
	mul := bb.Op(OpMul, "(a+b)*(a-b)")
	ret := bb.Op(OpReturn, "result")
	bb.Connect(ea, add, 0)
	bb.Connect(eb, add, 1)
	bb.Connect(ea, sub, 0)
	bb.Connect(eb, sub, 1)
	bb.Connect(add, mul, 0)
	bb.Connect(sub, mul, 1)
	bb.Connect(mul, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func runOne(t *testing.T, p *Program, args ...token.Value) token.Value {
	t.Helper()
	res, err := NewInterp(p).Run(args...)
	if err != nil {
		t.Fatalf("Run(%v): %v", args, err)
	}
	if len(res) != 1 {
		t.Fatalf("Run(%v) returned %d results: %v", args, len(res), res)
	}
	return res[0]
}

func TestArithmeticGraph(t *testing.T) {
	p := buildArith(t)
	got := runOne(t, p, token.Int(7), token.Int(3))
	if got.I != 40 {
		t.Fatalf("(7+3)*(7-3) = %s, want 40", got)
	}
}

func TestArithmeticGraphProperty(t *testing.T) {
	p := buildArith(t)
	if err := quick.Check(func(a, b int16) bool {
		got := runOne(t, p, token.Int(int64(a)), token.Int(int64(b)))
		return got.I == (int64(a)+int64(b))*(int64(a)-int64(b))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLiteralOperand(t *testing.T) {
	b := NewBuilder("lit")
	bb := b.NewBlock("main", 1)
	mul := bb.OpLit(OpMul, token.Int(10), 1, "x*10")
	ret := bb.Op(OpReturn, "")
	bb.Connect(bb.Entry(0), mul, 0)
	bb.Connect(mul, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := runOne(t, p, token.Int(6)); got.I != 60 {
		t.Fatalf("6*10 = %s", got)
	}
	// nt must be 1: literal operands do not arrive as tokens.
	if p.Entry().Instr(mul).NT != 1 {
		t.Fatalf("literal instruction nt = %d, want 1", p.Entry().Instr(mul).NT)
	}
}

func TestSwitchRouting(t *testing.T) {
	// |x| via switch: if x >= 0 then x else -x
	b := NewBuilder("abs")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	ge := bb.OpLit(OpGE, token.Int(0), 1, "x>=0")
	sw := bb.Op(OpSwitch, "route x")
	neg := bb.Op(OpNeg, "-x")
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, ge, 0)
	bb.Connect(e, sw, 0)
	bb.Connect(ge, sw, 1)
	bb.Connect(sw, ret, 0)      // true: x itself
	bb.ConnectFalse(sw, neg, 0) // false: negate first
	bb.Connect(neg, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := runOne(t, p, token.Int(-5)); got.I != 5 {
		t.Fatalf("|-5| = %s", got)
	}
	if got := runOne(t, p, token.Int(9)); got.I != 9 {
		t.Fatalf("|9| = %s", got)
	}
}

// buildSquareCall builds main(x) = square(x) + 1 with square a separate
// code block, exercising GetContext/SendArg/Return.
func buildSquareCall(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("call")
	main := b.NewBlock("main", 1)
	sq := b.NewBlock("square", 1)

	sqx := sq.Entry(0)
	mul := sq.Op(OpMul, "x*x")
	sqret := sq.Op(OpReturn, "")
	sq.Connect(sqx, mul, 0)
	sq.Connect(sqx, mul, 1)
	sq.Connect(mul, sqret, 0)

	e := main.Entry(0)
	getc := main.Emit(Instruction{Op: OpGetContext, Target: sq.ID(), Comment: "call square"})
	send := main.Emit(Instruction{Op: OpSendArg, Target: sq.ID(), ArgIndex: 0})
	add1 := main.OpLit(OpAdd, token.Int(1), 1, "+1")
	ret := main.Op(OpReturn, "")
	main.Connect(e, getc, 0) // trigger
	main.Connect(e, send, 1) // argument value
	main.Connect(getc, send, 0)
	main.ConnectReturn(getc, add1, 0)
	main.Connect(add1, ret, 0)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestProcedureCall(t *testing.T) {
	p := buildSquareCall(t)
	if got := runOne(t, p, token.Int(6)); got.I != 37 {
		t.Fatalf("square(6)+1 = %s, want 37", got)
	}
}

// buildSumLoop builds sum(n) = 1+2+...+n as a loop code block using the
// paper's L, D, D⁻¹, L⁻¹ operators (the hand-built analogue of Figure 2-2).
func buildSumLoop(t testing.TB) *Program {
	b := NewBuilder("sumloop")
	main := b.NewBlock("main", 1)
	loop := b.NewBlock("loop", 3) // circulating: i, s, n

	// Loop body: while i <= n { s += i; i += 1 }
	ei, es, en := loop.Entry(0), loop.Entry(1), loop.Entry(2)
	le := loop.Op(OpLE, "i<=n")
	swi := loop.Op(OpSwitch, "i")
	sws := loop.Op(OpSwitch, "s")
	swn := loop.Op(OpSwitch, "n")
	inci := loop.OpLit(OpAdd, token.Int(1), 1, "i+1")
	adds := loop.Op(OpAdd, "s+i")
	di := loop.Op(OpD, "D i")
	ds := loop.Op(OpD, "D s")
	dn := loop.Op(OpD, "D n")
	dinv := loop.Op(OpDInv, "D-1 s")
	lret := loop.Op(OpLInv, "L-1")

	loop.Connect(ei, le, 0)
	loop.Connect(en, le, 1)
	loop.Connect(ei, swi, 0)
	loop.Connect(es, sws, 0)
	loop.Connect(en, swn, 0)
	loop.Connect(le, swi, 1)
	loop.Connect(le, sws, 1)
	loop.Connect(le, swn, 1)
	// true: compute next values and send them around via D
	loop.Connect(swi, inci, 0)
	loop.Connect(swi, adds, 1)
	loop.Connect(sws, adds, 0)
	loop.Connect(inci, di, 0)
	loop.Connect(adds, ds, 0)
	loop.Connect(swn, dn, 0)
	loop.Connect(di, ei, 0)
	loop.Connect(ds, es, 0)
	loop.Connect(dn, en, 0)
	// false: s exits; i and n are absorbed (empty false lists)
	loop.ConnectFalse(sws, dinv, 0)
	loop.Connect(dinv, lret, 0)

	// Caller: allocate loop context, send i=1, s=0, n.
	e := main.Entry(0)
	getc := main.Emit(Instruction{Op: OpGetContext, Target: loop.ID(), Comment: "enter loop"})
	li := main.Emit(Instruction{Op: OpL, Target: loop.ID(), ArgIndex: 0, HasLiteral: true, Literal: token.Int(1), LiteralPort: 1, Comment: "L i=1"})
	ls := main.Emit(Instruction{Op: OpL, Target: loop.ID(), ArgIndex: 1, HasLiteral: true, Literal: token.Int(0), LiteralPort: 1, Comment: "L s=0"})
	ln := main.Emit(Instruction{Op: OpL, Target: loop.ID(), ArgIndex: 2, Comment: "L n"})
	ret := main.Op(OpReturn, "")
	main.Connect(e, getc, 0)
	main.Connect(e, ln, 1)
	main.Connect(getc, li, 0)
	main.Connect(getc, ls, 0)
	main.Connect(getc, ln, 0)
	main.ConnectReturn(getc, ret, 0)

	p, err := b.Finish()
	if err != nil {
		if t, ok := t.(*testing.T); ok {
			t.Fatalf("Finish: %v", err)
		}
		panic(err)
	}
	return p
}

func TestLoopLDLInv(t *testing.T) {
	p := buildSumLoop(t)
	for _, c := range []struct{ n, want int64 }{
		{0, 0}, {1, 1}, {2, 3}, {10, 55}, {100, 5050},
	} {
		if got := runOne(t, p, token.Int(c.n)); got.I != c.want {
			t.Fatalf("sum(%d) = %s, want %d", c.n, got, c.want)
		}
	}
}

func TestLoopIterationsUseDistinctInitiations(t *testing.T) {
	// The loop must not leave unmatched tokens behind: every iteration's
	// tokens matched under distinct initiation numbers.
	p := buildSumLoop(t)
	it := NewInterp(p)
	res, err := it.Run(token.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].I != 1275 {
		t.Fatalf("sum(50) = %s", res[0])
	}
	if it.Fired() < 50*5 {
		t.Fatalf("suspiciously few firings for 50 iterations: %d", it.Fired())
	}
}

func buildIStructureProgram(t *testing.T, fetchFirst bool) *Program {
	t.Helper()
	b := NewBuilder("istore")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0) // n: structure size (and trigger)
	alloc := bb.Op(OpAllocate, "array(n)")
	fan := bb.Fan(alloc)
	addr := bb.OpLit(OpIAddr, token.Int(0), 1, "&a[0]")
	fetch := bb.Op(OpFetch, "a[0]")
	// The stored value 42 is synthesized from the trigger (n*0 + 42) so it
	// becomes available no earlier than the fetch: the read reaches the
	// cell first and must be deferred.
	zero := bb.OpLit(OpMul, token.Int(0), 1, "n*0")
	c42 := bb.OpLit(OpAdd, token.Int(42), 1, "+42")
	id := bb.Op(OpIdentity, "delay")
	store := bb.Op(OpStore, "a[0] <- 42")
	ret := bb.Op(OpReturn, "")

	bb.Connect(e, alloc, 0)
	bb.Connect(fan, addr, 0)
	if fetchFirst {
		bb.Connect(addr, fetch, 0)
		bb.Connect(addr, store, 0)
	} else {
		bb.Connect(addr, store, 0)
		bb.Connect(addr, fetch, 0)
	}
	bb.Connect(e, zero, 0)
	bb.Connect(zero, c42, 0)
	bb.Connect(c42, id, 0)
	bb.Connect(id, store, 1)
	bb.Connect(fetch, ret, 0)

	p, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestIStructureDeferredRead(t *testing.T) {
	p := buildIStructureProgram(t, true)
	it := NewInterp(p)
	res, err := it.Run(token.Int(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].I != 42 {
		t.Fatalf("deferred fetch returned %v", res)
	}
	total, peak := it.DeferredReads()
	if total != 1 || peak != 1 {
		t.Fatalf("deferred reads total=%d peak=%d, want 1/1", total, peak)
	}
}

func TestIStructureDoubleWriteFails(t *testing.T) {
	b := NewBuilder("dw")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	alloc := bb.Op(OpAllocate, "")
	fan := bb.Fan(alloc)
	addr := bb.OpLit(OpIAddr, token.Int(0), 1, "")
	st1 := bb.OpLit(OpStore, token.Int(1), 1, "")
	st2 := bb.OpLit(OpStore, token.Int(2), 1, "")
	retn := bb.Op(OpReturn, "")
	bb.Connect(e, alloc, 0)
	bb.Connect(fan, addr, 0)
	bb.Connect(addr, st1, 0)
	bb.Connect(addr, st2, 0)
	bb.Connect(fan, retn, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInterp(p).Run(token.Int(1))
	if err == nil || !strings.Contains(err.Error(), "single-assignment") {
		t.Fatalf("double write must fail with single-assignment error, got %v", err)
	}
}

func TestIStructureDeadlockDetected(t *testing.T) {
	// A fetch with no matching store must be reported as a deadlock.
	b := NewBuilder("dead")
	bb := b.NewBlock("main", 1)
	e := bb.Entry(0)
	alloc := bb.Op(OpAllocate, "")
	addr := bb.OpLit(OpIAddr, token.Int(0), 1, "")
	fetch := bb.Op(OpFetch, "")
	ret := bb.Op(OpReturn, "")
	bb.Connect(e, alloc, 0)
	bb.Connect(alloc, addr, 0)
	bb.Connect(addr, fetch, 0)
	bb.Connect(fetch, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInterp(p).Run(token.Int(1))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestInterpProfileSimple(t *testing.T) {
	// (a+b)*(a-b): wave 1 fires the two entries... entries are identities;
	// depth must be: entries, add/sub, mul, return = 4 waves.
	p := buildArith(t)
	it := NewInterp(p)
	if _, err := it.Run(token.Int(1), token.Int(2)); err != nil {
		t.Fatal(err)
	}
	if it.Depth() != 4 {
		t.Fatalf("depth = %d (profile %v), want 4", it.Depth(), it.profile)
	}
	if it.MaxParallelism() != 2 {
		t.Fatalf("max parallelism = %d (profile %v), want 2", it.MaxParallelism(), it.profile)
	}
}

func TestValidateCatchesBadDest(t *testing.T) {
	b := NewBuilder("bad")
	bb := b.NewBlock("main", 1)
	id := bb.Op(OpIdentity, "")
	bb.Connect(bb.Entry(0), id, 0)
	bb.Instr(id).Dests = append(bb.Instr(id).Dests, Dest{Stmt: 99, Port: 0})
	if _, err := b.Finish(); err == nil {
		t.Fatal("out-of-range destination must fail validation")
	}
}

func TestValidateCatchesLiteralPortTarget(t *testing.T) {
	b := NewBuilder("bad2")
	bb := b.NewBlock("main", 1)
	mul := bb.OpLit(OpMul, token.Int(2), 1, "")
	ret := bb.Op(OpReturn, "")
	bb.Connect(bb.Entry(0), mul, 0)
	bb.Connect(mul, ret, 0)
	// illegal: route a token at the literal port
	bb.Instr(bb.Entry(0)).Dests = append(bb.Instr(bb.Entry(0)).Dests, Dest{Stmt: mul, Port: 1})
	if _, err := b.Finish(); err == nil {
		t.Fatal("destination at a literal port must fail validation")
	}
}

func TestValidateCatchesMultiDestFetch(t *testing.T) {
	b := NewBuilder("bad3")
	bb := b.NewBlock("main", 1)
	alloc := bb.Op(OpAllocate, "")
	addr := bb.OpLit(OpIAddr, token.Int(0), 1, "")
	fetch := bb.Op(OpFetch, "")
	r1 := bb.Op(OpReturn, "")
	r2 := bb.Op(OpSink, "")
	bb.Connect(bb.Entry(0), alloc, 0)
	bb.Connect(alloc, addr, 0)
	bb.Connect(addr, fetch, 0)
	bb.Connect(fetch, r1, 0)
	bb.Connect(fetch, r2, 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("fetch with two destinations must fail validation")
	}
}

func TestValidateCatchesMissingDest(t *testing.T) {
	b := NewBuilder("bad4")
	bb := b.NewBlock("main", 1)
	add := bb.OpLit(OpAdd, token.Int(1), 1, "")
	bb.Connect(bb.Entry(0), add, 0)
	if _, err := b.Finish(); err == nil {
		t.Fatal("dangling result must fail validation")
	}
}

func TestDumpContainsPaperOperators(t *testing.T) {
	p := buildSumLoop(t)
	d := p.Dump()
	for _, s := range []string{"L ", "D ", "D-1", "L-1", "GETC", "SWITCH"} {
		if !strings.Contains(d, s) {
			t.Fatalf("dump missing %q:\n%s", s, d)
		}
	}
}

func TestProgramStats(t *testing.T) {
	p := buildSumLoop(t)
	if p.CountOp(OpD) != 3 || p.CountOp(OpL) != 3 || p.CountOp(OpLInv) != 1 {
		t.Fatalf("unexpected op mix: %v", p.Stats())
	}
}

func TestEvalProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// commutativity over ints
	if err := quick.Check(func(a, b int32) bool {
		for _, op := range []Opcode{OpAdd, OpMul, OpMin, OpMax, OpEQ, OpNE} {
			x, err1 := Eval(op, token.Int(int64(a)), token.Int(int64(b)))
			y, err2 := Eval(op, token.Int(int64(b)), token.Int(int64(a)))
			if err1 != nil || err2 != nil || !x.Equal(y) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	// comparisons are mutually consistent
	if err := quick.Check(func(a, b int32) bool {
		lt, _ := Eval(OpLT, token.Int(int64(a)), token.Int(int64(b)))
		ge, _ := Eval(OpGE, token.Int(int64(a)), token.Int(int64(b)))
		return lt == token.Bool(a < b) && ge == token.Bool(a >= b)
	}, cfg); err != nil {
		t.Fatal(err)
	}
	// identity passes anything through
	if err := quick.Check(func(a int64) bool {
		v, err := Eval(OpIdentity, token.Int(a), token.Nil())
		return err == nil && v.I == a
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(OpDiv, token.Int(1), token.Int(0)); err == nil {
		t.Fatal("integer division by zero must error")
	}
	if _, err := Eval(OpDiv, token.Float(1), token.Float(0)); err == nil {
		t.Fatal("float division by zero must error")
	}
	if _, err := Eval(OpSqrt, token.Float(-1), token.Nil()); err == nil {
		t.Fatal("sqrt of negative must error")
	}
	if _, err := Eval(OpAdd, token.Bool(true), token.Int(1)); err == nil {
		t.Fatal("bool arithmetic must error")
	}
	if _, err := Eval(OpSwitch, token.Int(1), token.Bool(true)); err == nil {
		t.Fatal("Eval of control opcode must error")
	}
	if _, err := Eval(OpIAddr, token.NewRef(token.Ref{Base: 0, Len: 3}), token.Int(3)); err == nil {
		t.Fatal("out-of-bounds index must error")
	}
}

func TestEvalNumericTower(t *testing.T) {
	v, err := Eval(OpAdd, token.Int(1), token.Float(2.5))
	if err != nil || v.Kind != token.KindFloat || v.F != 3.5 {
		t.Fatalf("1 + 2.5 = %s, %v", v, err)
	}
	v, err = Eval(OpDiv, token.Int(7), token.Int(2))
	if err != nil || v.Kind != token.KindInt || v.I != 3 {
		t.Fatalf("7 / 2 = %s, %v (integer division should truncate)", v, err)
	}
	v, err = Eval(OpFloor, token.Float(2.9), token.Nil())
	if err != nil || v.Kind != token.KindInt || v.I != 2 {
		t.Fatalf("floor(2.9) = %s, %v", v, err)
	}
}

// TestEvalIntEdges pins Eval at the int64 edges, where two's-complement
// wraparound and the float64 comparisons part ways with exact integer
// arithmetic. Every backend shares Eval, so these are every backend's
// answers, on 32-bit hosts too.
func TestEvalIntEdges(t *testing.T) {
	const p53 = 1 << 53
	minI, maxI := token.Int(math.MinInt64), token.Int(math.MaxInt64)
	cases := []struct {
		name string
		op   Opcode
		a, b token.Value
		want token.Value
		err  string // the error text, when Eval must fail
	}{
		{"MinInt64 / -1", OpDiv, minI, token.Int(-1), minI, ""},
		{"MinInt64 % -1", OpMod, minI, token.Int(-1), token.Int(0), ""},
		{"abs(MinInt64)", OpAbs, minI, token.Nil(), minI, ""},
		{"-MinInt64", OpNeg, minI, token.Nil(), minI, ""},
		{"MaxInt64 + 1", OpAdd, maxI, token.Int(1), minI, ""},
		// float64(2^53+1) rounds to 2^53.
		{"2^53 < 2^53+1", OpLT, token.Int(p53), token.Int(p53 + 1), token.Bool(false), ""},
		{"2^53 >= 2^53+1", OpGE, token.Int(p53), token.Int(p53 + 1), token.Bool(true), ""},
		{"2^53 == 2^53+1", OpEQ, token.Int(p53), token.Int(p53 + 1), token.Bool(true), ""},
		{"7 / 0", OpDiv, token.Int(7), token.Int(0), token.Nil(), "graph: integer division by zero"},
		{"7 % 0", OpMod, token.Int(7), token.Int(0), token.Nil(), "graph: modulo by zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Eval(tc.op, tc.a, tc.b)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("%s(%s, %s) = %s, %v; want error %q", tc.op, tc.a, tc.b, got, err, tc.err)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("%s(%s, %s) = %s, %v; want %s", tc.op, tc.a, tc.b, got, err, tc.want)
			}
		})
	}
}
