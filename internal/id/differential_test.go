package id

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/token"
)

// progGen generates random — but terminating and well-defined — MiniID
// programs for differential testing: the reference interpreter, the
// cycle-accurate machine, and the emulator must agree on every one of
// them.
type progGen struct {
	rng   *sim.RNG
	buf   strings.Builder
	depth int
}

// genExpr emits an integer-valued expression over the variables in scope.
func (g *progGen) genExpr(scope []string, depth int) string {
	if depth <= 0 || g.rng.Bool(0.25) {
		// leaf
		if len(scope) > 0 && g.rng.Bool(0.6) {
			return scope[g.rng.Intn(len(scope))]
		}
		if g.rng.Bool(0.15) {
			// float literal: all engines share graph.Eval, so float
			// arithmetic is bit-identical across substrates
			return fmt.Sprintf("%d.5", g.rng.Intn(8))
		}
		return fmt.Sprintf("%d", g.rng.Intn(16)-5)
	}
	if g.rng.Bool(0.1) {
		// division by a non-zero constant is always defined
		return fmt.Sprintf("(%s / %d)", g.genExpr(scope, depth-1), g.rng.Intn(5)+2)
	}
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	case 3:
		// modulo by a positive constant: always defined
		return fmt.Sprintf("(%s %% %d)", g.genExpr(scope, depth-1), g.rng.Intn(6)+2)
	case 4:
		return fmt.Sprintf("min(%s, %s)", g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	case 5:
		return fmt.Sprintf("max(%s, %s)", g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	case 6:
		cmp := []string{"<", "<=", ">", ">=", "==", "!="}[g.rng.Intn(6)]
		return fmt.Sprintf("(if %s %s %s then %s else %s)",
			g.genExpr(scope, depth-1), cmp, g.genExpr(scope, depth-1),
			g.genExpr(scope, depth-1), g.genExpr(scope, depth-1))
	default:
		return g.genLoop(scope, depth-1)
	}
}

// genLoop emits a counted loop with a small constant trip count or a
// while loop driven by a bounded counter.
func (g *progGen) genLoop(scope []string, depth int) string {
	acc := fmt.Sprintf("s%d", g.rng.Intn(1000))
	idx := fmt.Sprintf("i%d", g.rng.Intn(1000))
	inner := append(append([]string{}, scope...), acc, idx)
	if g.rng.Bool(0.3) {
		// bounded while loop: the counter strictly decreases
		return fmt.Sprintf(
			"(initial %s <- %s; %s <- %d while %s > 0 do new %s <- %s; new %s <- %s - 1 return %s)",
			acc, g.genExpr(scope, depth), idx, g.rng.Intn(6)+1,
			idx,
			acc, g.genExpr(inner, depth),
			idx, idx,
			acc)
	}
	lo := g.rng.Intn(4)
	hi := lo + g.rng.Intn(6)
	return fmt.Sprintf(
		"(initial %s <- %s for %s from %d to %d do new %s <- %s return %s)",
		acc, g.genExpr(scope, depth), idx, lo, hi,
		acc, g.genExpr(inner, depth),
		acc)
}

// genArrayProgram emits a program that fills an array with generated
// element expressions and folds it — random but single-assignment-safe.
func (g *progGen) genArrayProgram() string {
	n := g.rng.Intn(12) + 4
	elem := g.genExpr([]string{"i"}, 2)
	fold := g.genExpr([]string{"s", "a_i"}, 2)
	// a_i stands for a[i]; splice the fetch in
	fold = strings.ReplaceAll(fold, "a_i", "a[i]")
	return fmt.Sprintf(`
def main(u) =
  { a = array(%d);
    p = (initial z <- 0
         for i from 0 to %d do
           a[i] <- %s;
           new z <- z
         return 0);
    s = (initial s <- u
         for i from 0 to %d do
           new s <- %s
         return s);
    s + p * 0 };
`, n, n-1, elem, n-1, fold)
}

func (g *progGen) genProgram() string {
	if g.rng.Bool(0.3) {
		return g.genArrayProgram()
	}
	var b strings.Builder
	helpers := g.rng.Intn(3)
	names := []string{}
	for h := 0; h < helpers; h++ {
		name := fmt.Sprintf("h%d", h)
		fmt.Fprintf(&b, "def %s(x) = %s;\n", name, g.genExpr([]string{"x"}, 2))
		names = append(names, name)
	}
	body := g.genExpr([]string{"u", "v"}, 3)
	// sprinkle helper calls over some leaves
	for _, name := range names {
		if g.rng.Bool(0.7) {
			body = fmt.Sprintf("(%s + %s(u))", body, name)
		}
	}
	fmt.Fprintf(&b, "def main(u, v) = %s;\n", body)
	return b.String()
}

// outcome captures success-with-values or failure for comparison.
type outcome struct {
	ok   bool
	vals string
}

func runInterpO(prog *graph.Program, args []token.Value) outcome {
	it := graph.NewInterp(prog)
	it.SetMaxSteps(5_000_000)
	res, err := it.Run(args...)
	if err != nil {
		return outcome{}
	}
	return outcome{ok: true, vals: fmt.Sprint(res)}
}

func runMachineO(prog *graph.Program, args []token.Value) outcome {
	m := core.NewMachine(core.Config{PEs: 3, NetLatency: 3}, prog)
	res, err := m.Run(50_000_000, args...)
	if err != nil {
		return outcome{}
	}
	return outcome{ok: true, vals: fmt.Sprint(res)}
}

func runEmulatorO(prog *graph.Program, args []token.Value) outcome {
	f := emulator.New(emulator.Config{Dim: 2}, prog)
	res, err := f.Run(args...)
	if err != nil {
		return outcome{}
	}
	return outcome{ok: true, vals: fmt.Sprint(res)}
}

// TestDifferentialRandomPrograms generates random programs and requires
// the three execution substrates to agree exactly — the strongest
// correctness statement in the repository.
func TestDifferentialRandomPrograms(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 15
	}
	for seed := uint64(1); seed <= uint64(iterations); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &progGen{rng: sim.NewRNG(seed * 7919)}
			src := g.genProgram()
			prog, err := Compile(src)
			if err != nil {
				t.Fatalf("generated program failed to compile: %v\n%s", err, src)
			}
			var args []token.Value
			nargs := len(prog.Entry().Entries)
			for i := 0; i < nargs; i++ {
				args = append(args, token.Int(int64(g.rng.Intn(10))))
			}
			ref := runInterpO(prog, args)
			mach := runMachineO(prog, args)
			emu := runEmulatorO(prog, args)
			if ref != mach {
				t.Fatalf("interpreter %+v != machine %+v\nprogram:\n%s", ref, mach, src)
			}
			if ref != emu {
				t.Fatalf("interpreter %+v != emulator %+v\nprogram:\n%s", ref, emu, src)
			}
			if !ref.ok {
				t.Logf("seed %d: all substrates agree the program faults (acceptable)", seed)
			}
		})
	}
}

// TestDifferentialWorkloads runs every named workload through all three
// substrates at several machine sizes.
func TestDifferentialWorkloads(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []token.Value
	}{
		{"gcd-while", `
def main(a, b) =
  (initial x <- a; y <- b
   while y != 0 do
     new x <- y;
     new y <- x % y
   return x);
`, []token.Value{token.Int(1071), token.Int(462)}},
		{"mergesort", workloadMergeSort, []token.Value{token.Int(10)}},
		{"ackermann-ish", `
def ack(m, n) =
  if m == 0 then n + 1
  else if n == 0 then ack(m - 1, 1)
  else ack(m - 1, ack(m, n - 1));
def main(m, n) = ack(m, n);
`, []token.Value{token.Int(2), token.Int(3)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Compile(c.src)
			if err != nil {
				t.Fatal(err)
			}
			ref := runInterpO(prog, c.args)
			if !ref.ok {
				t.Fatalf("reference run failed")
			}
			if mach := runMachineO(prog, c.args); mach != ref {
				t.Fatalf("machine %+v != interpreter %+v", mach, ref)
			}
			if emu := runEmulatorO(prog, c.args); emu != ref {
				t.Fatalf("emulator %+v != interpreter %+v", emu, ref)
			}
		})
	}
}

// workloadMergeSort mirrors workload.MergeSortID (duplicated here to avoid
// an import cycle between id's tests and workload, which imports id's
// sibling packages).
const workloadMergeSort = `
def copyRange(a, off, m) =
  { b = array(m);
    f = (initial z <- 0
         for q from 0 to m - 1 do
           b[q] <- a[off + q];
           new z <- z
         return 0);
    b };
def pickX(x, y, i, j, nx, ny) =
  if j >= ny then true
  else if i >= nx then false
  else x[i] <= y[j];
def merge(x, nx, y, ny) =
  { out = array(nx + ny);
    f = (initial i <- 0; j <- 0
         while i + j < nx + ny do
           out[i + j] <- if pickX(x, y, i, j, nx, ny) then x[i] else y[j];
           new i <- if pickX(x, y, i, j, nx, ny) then i + 1 else i;
           new j <- if pickX(x, y, i, j, nx, ny) then j else j + 1
         return 0);
    out };
def msort(a, n) =
  if n <= 1 then a
  else { h = n / 2;
         merge(msort(copyRange(a, 0, h), h), h,
               msort(copyRange(a, h, n - h), n - h), n - h) };
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for q from 0 to n - 1 do
           a[q] <- q * 37 % 101;
           new z <- z
         return 0);
    s = msort(a, n);
    (initial c <- f
     for q from 0 to n - 1 do
       new c <- c + s[q] * (q + 1)
     return c) };
`
