// Package conformance is the cross-machine differential test harness: a
// seeded random workload generator that emits each program in two
// executable forms — a MiniID source compiled through internal/id and
// internal/graph for the dataflow machines, and a matching vn assembly
// program for the von Neumann baselines — plus four oracle families run
// over the whole machine fleet:
//
//	result equivalence — every machine produces the same numeric answer;
//	determinism        — two runs of one config are bit-identical in
//	                     cycles, statistics, and Engine.Counters();
//	metamorphic        — raising memory latency never decreases a von
//	                     Neumann machine's cycle count, TTDA time never
//	                     drops below the graph's critical path S∞, and
//	                     omega-network combining never slows the
//	                     Ultracomputer on a FETCH-AND-ADD-heavy workload;
//	engine honesty     — the wake-queue engine run matches the legacy
//	                     exhaustive-fallback run for every generated case.
//
// The methodology follows AriDeM's empirical validation (run identical
// workloads on the dataflow and the conventional machine, compare
// results) and the Ultracomputer retrospective's insistence that
// combining claims hold under randomized contention.
package conformance

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Memory layout shared by every generated vn program. Addresses are kept
// small enough to be valid on every baseline (Cm* is configured with the
// tightest space: Clusters×ClusterWords words).
const (
	// ResultAddr is where the vn form stores its final answer.
	ResultAddr = 64
	// ArrayBase is the first element of the fillsum shape's array.
	ArrayBase = 128
)

// Shape selects the program skeleton around the generated expression.
type Shape uint8

// Shapes.
const (
	// ShapeReduce folds s = s op f(i) for i in 1..n, with the running
	// value written through memory each iteration on the vn side.
	ShapeReduce Shape = iota
	// ShapeFill stores f(i) into a[i-1] for i in 1..n, then sums the
	// array — I-structure traffic on the dataflow side, two memory loops
	// on the von Neumann side.
	ShapeFill
)

func (s Shape) String() string {
	if s == ShapeFill {
		return "fill"
	}
	return "reduce"
}

// Workload is one generated program in both executable forms.
type Workload struct {
	Seed  uint64
	Shape Shape
	// N is the loop trip count; Init seeds the accumulator.
	N    int64
	Init int64
	// Op is the fold operator: '+' or '*' (both commutative and
	// associative mod 2^64, so SIMD tree reduction is also exact).
	Op byte
	// Body is f(i), the per-iteration expression.
	Body expr
}

// expr is a tiny integer expression tree over the loop variable i. Every
// renderer (MiniID, vn assembly, pure Go) evaluates it with int64
// wraparound semantics, so all machines agree bit-for-bit.
type expr interface {
	eval(i int64) int64
	id() string // MiniID rendering, fully parenthesized, variable "i"
}

type lit int64

func (l lit) eval(int64) int64 { return int64(l) }
func (l lit) id() string       { return fmt.Sprintf("%d", int64(l)) }

type loopVar struct{}

func (loopVar) eval(i int64) int64 { return i }
func (loopVar) id() string         { return "i" }

type bin struct {
	op   byte // '+', '-', '*'
	l, r expr
}

func (b bin) eval(i int64) int64 {
	x, y := b.l.eval(i), b.r.eval(i)
	switch b.op {
	case '+':
		return x + y
	case '-':
		return x - y
	default:
		return x * y
	}
}

func (b bin) id() string {
	return fmt.Sprintf("(%s %c %s)", b.l.id(), b.op, b.r.id())
}

// cond is "if i % mod == rem then thn else els". The guard only ever
// touches the (positive) loop variable, so MiniID %, Go %, and the vn
// div-based remainder sequence agree.
type cond struct {
	mod, rem int64
	thn, els expr
}

func (c cond) eval(i int64) int64 {
	if i%c.mod == c.rem {
		return c.thn.eval(i)
	}
	return c.els.eval(i)
}

func (c cond) id() string {
	return fmt.Sprintf("(if i %% %d == %d then %s else %s)", c.mod, c.rem, c.thn.id(), c.els.id())
}

// Generate derives a workload deterministically from seed.
func Generate(seed uint64) Workload {
	rng := sim.NewRNG(seed*2 + 1) // odd: never collides with the zero-seed remap
	w := Workload{
		Seed: seed,
		N:    int64(2 + rng.Intn(9)), // 2..10 iterations
		Init: int64(rng.Intn(10)),
		Op:   '+',
	}
	if rng.Bool(0.4) {
		w.Shape = ShapeFill
	}
	// Multiplicative folds only for the reduce shape (the fill shape's
	// consume loop is a sum); avoid Init==0 so they are not vacuous.
	if w.Shape == ShapeReduce && rng.Bool(0.3) {
		w.Op = '*'
		if w.Init == 0 {
			w.Init = 1
		}
	}
	w.Body = genExpr(rng, 0)
	return w
}

func genExpr(rng *sim.RNG, depth int) expr {
	if depth >= 3 || rng.Bool(0.35) {
		if rng.Bool(0.55) {
			return loopVar{}
		}
		return lit(rng.Intn(10))
	}
	if rng.Bool(0.25) {
		mod := int64(2 + rng.Intn(3)) // 2..4
		return cond{
			mod: mod,
			rem: int64(rng.Intn(int(mod))),
			thn: genExpr(rng, depth+1),
			els: genExpr(rng, depth+1),
		}
	}
	return bin{
		op: []byte{'+', '-', '*'}[rng.Intn(3)],
		l:  genExpr(rng, depth+1),
		r:  genExpr(rng, depth+1),
	}
}

// Expected folds the workload in pure Go — the reference answer every
// machine must reproduce.
func (w Workload) Expected() int64 {
	s := w.Init
	for i := int64(1); i <= w.N; i++ {
		s = w.fold(s, w.Body.eval(i))
	}
	return s
}

// fold applies the accumulation operator.
func (w Workload) fold(s, v int64) int64 {
	if w.Op == '*' {
		return s * v
	}
	return s + v
}

// IDSource renders the MiniID form. main(n) returns the fold.
func (w Workload) IDSource() string {
	var b strings.Builder
	fmt.Fprintf(&b, "def f(i) = %s;\n", w.Body.id())
	switch w.Shape {
	case ShapeFill:
		fmt.Fprintf(&b, `def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 1 to n do
           a[i - 1] <- f(i);
           new z <- z
         return 0);
    (initial s <- p + %d
     for i from 1 to n do
       new s <- s + a[i - 1]
     return s) };
`, w.Init)
	default:
		fmt.Fprintf(&b, `def main(n) =
  (initial s <- %d
   for i from 1 to n do
     new s <- s %c f(i)
   return s);
`, w.Init, w.Op)
	}
	return b.String()
}

// ASMSource renders the matching vn assembly form. The program is
// self-contained (n is an immediate), stores the answer at ResultAddr,
// and halts; idle cores of a multiprocessor run are parked on the final
// halt instruction.
func (w Workload) ASMSource() string {
	g := &asmGen{}
	switch w.Shape {
	case ShapeFill:
		g.emitFill(w)
	default:
		g.emitReduce(w)
	}
	return g.b.String()
}

// asmGen assembles the text form. Register conventions:
//
//	r1  array base (fill shape)     r5  result address
//	r2  accumulator s               r6  scratch address
//	r3  loop variable i             r7  scratch value
//	r4  n                           r8+ expression stack
type asmGen struct {
	b      strings.Builder
	labels int
	next   int // next free expression-stack register
}

const exprBase = 8

func (g *asmGen) ins(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, "        "+format+"\n", args...)
}

func (g *asmGen) label(name string) { fmt.Fprintf(&g.b, "%s:\n", name) }

func (g *asmGen) fresh(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s%d", prefix, g.labels)
}

// alloc grabs the next expression-stack register.
func (g *asmGen) alloc() int {
	r := exprBase + g.next
	g.next++
	if r >= 32 {
		panic("conformance: expression too deep for the register file")
	}
	return r
}

func (g *asmGen) release() { g.next-- }

// emitExpr evaluates e (with the loop variable in r3) into a fresh
// register and returns its index. The caller releases it.
func (g *asmGen) emitExpr(e expr) int {
	switch e := e.(type) {
	case lit:
		r := g.alloc()
		g.ins("li   r%d, %d", r, int64(e))
		return r
	case loopVar:
		r := g.alloc()
		g.ins("add  r%d, r3, r0", r)
		return r
	case bin:
		rl := g.emitExpr(e.l)
		rr := g.emitExpr(e.r)
		op := map[byte]string{'+': "add", '-': "sub", '*': "mul"}[e.op]
		g.ins("%s  r%d, r%d, r%d", op, rl, rl, rr)
		g.release()
		return rl
	case cond:
		rd := g.alloc()
		rt := g.alloc()
		// rt = i % mod, computed as i - (i/mod)*mod (i ≥ 1, mod ≥ 2).
		g.ins("li   r%d, %d", rt, e.mod)
		g.ins("div  r%d, r3, r%d", rd, rt)
		g.ins("mul  r%d, r%d, r%d", rd, rd, rt)
		g.ins("sub  r%d, r3, r%d", rt, rd)
		g.ins("li   r%d, %d", rd, e.rem)
		els, done := g.fresh("else"), g.fresh("fi")
		g.ins("bne  r%d, r%d, %s", rt, rd, els)
		ra := g.emitExpr(e.thn)
		g.ins("add  r%d, r%d, r0", rd, ra)
		g.release()
		g.ins("j    %s", done)
		g.label(els)
		rb := g.emitExpr(e.els)
		g.ins("add  r%d, r%d, r0", rd, rb)
		g.release()
		g.label(done)
		g.release() // rt
		return rd
	default:
		panic("conformance: unknown expression node")
	}
}

// emitReduce renders the reduce shape: the accumulator round-trips
// through memory every iteration so the program exercises the machine's
// memory system, not just its ALU.
func (g *asmGen) emitReduce(w Workload) {
	op := "add"
	if w.Op == '*' {
		op = "mul"
	}
	g.ins("li   r5, %d", ResultAddr)
	g.ins("li   r4, %d", w.N)
	g.ins("li   r2, %d", w.Init)
	g.ins("st   r2, r5, 0")
	g.ins("li   r3, 1")
	g.label("loop")
	g.ins("blt  r4, r3, done")
	rx := g.emitExpr(w.Body)
	g.ins("ld   r2, r5, 0")
	g.ins("%s  r2, r2, r%d", op, rx)
	g.release()
	g.ins("st   r2, r5, 0")
	g.ins("addi r3, r3, 1")
	g.ins("j    loop")
	g.label("done")
	g.ins("halt")
}

// emitFill renders the fill shape: store f(i) at ArrayBase+i-1, then sum
// the array into ResultAddr.
func (g *asmGen) emitFill(w Workload) {
	g.ins("li   r1, %d", ArrayBase)
	g.ins("li   r5, %d", ResultAddr)
	g.ins("li   r4, %d", w.N)
	g.ins("li   r3, 1")
	g.label("fill")
	g.ins("blt  r4, r3, mid")
	rx := g.emitExpr(w.Body)
	g.ins("add  r6, r1, r3")
	g.ins("st   r%d, r6, -1", rx)
	g.release()
	g.ins("addi r3, r3, 1")
	g.ins("j    fill")
	g.label("mid")
	g.ins("li   r2, %d", w.Init)
	g.ins("li   r3, 1")
	g.label("sum")
	g.ins("blt  r4, r3, done")
	g.ins("add  r6, r1, r3")
	g.ins("ld   r7, r6, -1")
	g.ins("add  r2, r2, r7")
	g.ins("addi r3, r3, 1")
	g.ins("j    sum")
	g.label("done")
	g.ins("st   r2, r5, 0")
	g.ins("halt")
}

// String identifies the workload in failure reports.
func (w Workload) String() string {
	return fmt.Sprintf("seed=%d shape=%s n=%d init=%d op=%c f(i)=%s",
		w.Seed, w.Shape, w.N, w.Init, w.Op, w.Body.id())
}
