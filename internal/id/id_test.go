package id

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/token"
)

func runMain(t *testing.T, src string, args ...token.Value) token.Value {
	t.Helper()
	res, _, err := Run(src, args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results: %v", len(res), res)
	}
	return res[0]
}

func TestConstantMain(t *testing.T) {
	if got := runMain(t, "def main() = 42;"); got.I != 42 {
		t.Fatalf("main() = %s", got)
	}
}

func TestArithmetic(t *testing.T) {
	src := "def main(a, b) = (a + b) * (a - b);"
	if got := runMain(t, src, token.Int(7), token.Int(3)); got.I != 40 {
		t.Fatalf("got %s", got)
	}
}

func TestPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"def main() = 2 + 3 * 4;", 14},
		{"def main() = (2 + 3) * 4;", 20},
		{"def main() = 10 - 4 - 3;", 3},
		{"def main() = 20 / 2 / 5;", 2},
		{"def main() = 17 % 5;", 2},
		{"def main() = -3 * -4;", 12},
		{"def main() = 2 * 3 + 4 * 5;", 26},
	}
	for _, c := range cases {
		if got := runMain(t, c.src); got.I != c.want {
			t.Errorf("%s = %s, want %d", c.src, got, c.want)
		}
	}
}

func TestComparisonAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"def main() = 3 < 4;", true},
		{"def main() = 3 >= 4;", false},
		{"def main() = 3 == 3 and 4 != 5;", true},
		{"def main() = false or not false;", true},
		{"def main() = not (1 < 2);", false},
	}
	for _, c := range cases {
		if got := runMain(t, c.src); got != token.Bool(c.want) {
			t.Errorf("%s = %s, want %t", c.src, got, c.want)
		}
	}
}

func TestBuiltins(t *testing.T) {
	if got := runMain(t, "def main(x) = sqrt(x);", token.Float(9)); got.F != 3 {
		t.Fatalf("sqrt(9) = %s", got)
	}
	if got := runMain(t, "def main(x) = abs(x);", token.Int(-5)); got.I != 5 {
		t.Fatalf("abs(-5) = %s", got)
	}
	if got := runMain(t, "def main(a, b) = min(a, b) + max(a, b);", token.Int(3), token.Int(8)); got.I != 11 {
		t.Fatalf("min+max = %s", got)
	}
	if got := runMain(t, "def main(x) = floor(x);", token.Float(2.9)); got.I != 2 {
		t.Fatalf("floor(2.9) = %s", got)
	}
}

func TestLetBlock(t *testing.T) {
	src := `def main(a) = { x = a * 2; y = x + 1; x * y };`
	if got := runMain(t, src, token.Int(3)); got.I != 42 {
		t.Fatalf("got %s, want 42", got)
	}
}

func TestLetShadowing(t *testing.T) {
	src := `def main(a) = { a = a + 1; a = a * 2; a };`
	if got := runMain(t, src, token.Int(3)); got.I != 8 {
		t.Fatalf("got %s, want 8", got)
	}
}

func TestUnusedBindingIsSunk(t *testing.T) {
	src := `def main(a) = { unused = a * 100; a + 1 };`
	if got := runMain(t, src, token.Int(3)); got.I != 4 {
		t.Fatalf("got %s, want 4", got)
	}
}

func TestConditional(t *testing.T) {
	src := `def main(x) = if x < 0 then -x else x;`
	if got := runMain(t, src, token.Int(-9)); got.I != 9 {
		t.Fatalf("|-9| = %s", got)
	}
	if got := runMain(t, src, token.Int(4)); got.I != 4 {
		t.Fatalf("|4| = %s", got)
	}
}

func TestConditionalConstantArms(t *testing.T) {
	src := `def main(x) = if x > 0 then 1 else -1;`
	if got := runMain(t, src, token.Int(5)); got.I != 1 {
		t.Fatalf("sign(5) = %s", got)
	}
	if got := runMain(t, src, token.Int(-5)); got.I != -1 {
		t.Fatalf("sign(-5) = %s", got)
	}
}

func TestConditionalStaticallyFolded(t *testing.T) {
	src := `def main(x) = if true then x else x / 0;`
	if got := runMain(t, src, token.Int(3)); got.I != 3 {
		t.Fatalf("got %s", got)
	}
}

func TestNestedConditional(t *testing.T) {
	src := `def main(x) = if x < 10 then (if x < 5 then 1 else 2) else 3;`
	for _, c := range []struct{ x, want int64 }{{3, 1}, {7, 2}, {12, 3}} {
		if got := runMain(t, src, token.Int(c.x)); got.I != c.want {
			t.Fatalf("main(%d) = %s, want %d", c.x, got, c.want)
		}
	}
}

func TestFunctionCall(t *testing.T) {
	src := `
def square(x) = x * x;
def main(a) = square(a) + square(a + 1);
`
	if got := runMain(t, src, token.Int(3)); got.I != 25 {
		t.Fatalf("got %s, want 25", got)
	}
}

func TestZeroArgFunction(t *testing.T) {
	src := `
def seven() = 7;
def main(a) = a + seven();
`
	if got := runMain(t, src, token.Int(3)); got.I != 10 {
		t.Fatalf("got %s", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
def fact(n) = if n <= 1 then 1 else n * fact(n - 1);
def main(n) = fact(n);
`
	if got := runMain(t, src, token.Int(10)); got.I != 3628800 {
		t.Fatalf("fact(10) = %s", got)
	}
}

func TestFibonacciRecursive(t *testing.T) {
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	if got := runMain(t, src, token.Int(15)); got.I != 610 {
		t.Fatalf("fib(15) = %s", got)
	}
}

func TestMutualRecursion(t *testing.T) {
	src := `
def isEven(n) = if n == 0 then true else isOdd(n - 1);
def isOdd(n) = if n == 0 then false else isEven(n - 1);
def main(n) = isEven(n);
`
	if got := runMain(t, src, token.Int(10)); got != token.Bool(true) {
		t.Fatalf("isEven(10) = %s", got)
	}
	if got := runMain(t, src, token.Int(7)); got != token.Bool(false) {
		t.Fatalf("isEven(7) = %s", got)
	}
}

func TestSimpleLoop(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- s + i
   return s);
`
	for _, c := range []struct{ n, want int64 }{{0, 0}, {1, 1}, {10, 55}, {100, 5050}} {
		if got := runMain(t, src, token.Int(c.n)); got.I != c.want {
			t.Fatalf("sum(%d) = %s, want %d", c.n, got, c.want)
		}
	}
}

func TestLoopWithStep(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from 0 to n by 2 do
     new s <- s + i
   return s);
`
	if got := runMain(t, src, token.Int(10)); got.I != 30 { // 0+2+4+6+8+10
		t.Fatalf("got %s, want 30", got)
	}
}

func TestLoopNegativeStep(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from n to 1 by -1 do
     new s <- s + i
   return s);
`
	if got := runMain(t, src, token.Int(5)); got.I != 15 {
		t.Fatalf("got %s, want 15", got)
	}
}

func TestLoopReturnsIndexExpression(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 1
   for i from 1 to n do
     new s <- s * 2
   return s + i
  );
`
	// after n iterations s = 2^n, and on exit i = n+1
	if got := runMain(t, src, token.Int(4)); got.I != 16+5 {
		t.Fatalf("got %s, want 21", got)
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
def main(n) =
  (initial total <- 0
   for i from 1 to n do
     new total <- total + (initial s <- 0
                           for j from 1 to i do
                             new s <- s + j
                           return s)
   return total);
`
	// sum of triangular numbers T1..T5 = 1+3+6+10+15 = 35
	if got := runMain(t, src, token.Int(5)); got.I != 35 {
		t.Fatalf("got %s, want 35", got)
	}
}

func TestLoopCallingFunction(t *testing.T) {
	src := `
def square(x) = x * x;
def main(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- s + square(i)
   return s);
`
	if got := runMain(t, src, token.Int(5)); got.I != 55 {
		t.Fatalf("sum of squares = %s, want 55", got)
	}
}

func TestLoopWithConditionalBody(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- if i % 2 == 0 then s + i else s
   return s);
`
	if got := runMain(t, src, token.Int(10)); got.I != 30 { // 2+4+6+8+10
		t.Fatalf("got %s, want 30", got)
	}
}

// TestTrapezoid compiles and runs the paper's Figure 2-2 program verbatim
// (modulo surface syntax), integrating f over [a,b] with n intervals.
func TestTrapezoid(t *testing.T) {
	src := `
def f(x) = x * x;
def main(a, b, n) =
  { h = (b - a) / n;
    (initial s <- (f(a) + f(b)) / 2;
             x <- a + h
     for i from 1 to n - 1 do
       new x <- x + h;
       new s <- s + f(x)
     return s) * h };
`
	got := runMain(t, src, token.Float(0), token.Float(1), token.Float(100))
	want := 1.0 / 3.0 // integral of x^2 on [0,1]
	if math.Abs(got.F-want) > 1e-4 {
		t.Fatalf("trapezoid = %v, want ~%v", got.F, want)
	}
	// trapezoid rule error for x^2 is h^2/6... check the exact composite value
	exact := 0.0
	h := 0.01
	ff := func(x float64) float64 { return x * x }
	exact = (ff(0) + ff(1)) / 2
	for i := 1; i <= 99; i++ {
		exact += ff(float64(i) * h)
	}
	exact *= h
	if math.Abs(got.F-exact) > 1e-12 {
		t.Fatalf("trapezoid = %.15f, exact composite = %.15f", got.F, exact)
	}
}

// TestTrapezoidStatementOrderIrrelevant checks the ID single-assignment
// semantics: within an iteration, plain x means the current value even when
// textually after `new x`.
func TestTrapezoidStatementOrderIrrelevant(t *testing.T) {
	a := `
def f(x) = 2 * x;
def main(a, b, n) =
  { h = (b - a) / n;
    (initial s <- (f(a) + f(b)) / 2; x <- a + h
     for i from 1 to n - 1 do
       new x <- x + h;
       new s <- s + f(x)
     return s) * h };
`
	b := `
def f(x) = 2 * x;
def main(a, b, n) =
  { h = (b - a) / n;
    (initial s <- (f(a) + f(b)) / 2; x <- a + h
     for i from 1 to n - 1 do
       new s <- s + f(x);
       new x <- x + h
     return s) * h };
`
	va := runMain(t, a, token.Float(0), token.Float(2), token.Float(10))
	vb := runMain(t, b, token.Float(0), token.Float(2), token.Float(10))
	if va.F != vb.F {
		t.Fatalf("statement order changed the answer: %v vs %v", va.F, vb.F)
	}
	if math.Abs(va.F-4) > 1e-12 { // integral of 2x over [0,2] = 4
		t.Fatalf("got %v, want 4", va.F)
	}
}

func TestArrayStoreAndSelect(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    fill = (initial unused <- 0
            for i from 0 to n - 1 do
              a[i] <- i * i;
              new unused <- unused
            return 0);
    a[3] + fill };
`
	if got := runMain(t, src, token.Int(5)); got.I != 9 {
		t.Fatalf("a[3] = %s, want 9", got)
	}
}

func TestArrayProducerConsumer(t *testing.T) {
	// The consumer loop reads elements the producer loop writes; I-structure
	// semantics synchronize them with no barrier in between.
	src := `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i + 100;
           new z <- z
         return 0);
    (initial s <- p
     for i from 0 to n - 1 do
       new s <- s + a[i]
     return s) };
`
	// note: s starts at p (=0) only to keep the producer's result consumed
	if got := runMain(t, src, token.Int(4)); got.I != 406 {
		t.Fatalf("sum = %s, want 406", got)
	}
}

func TestArrayLen(t *testing.T) {
	src := `def main(n) = len(array(n * 2));`
	if got := runMain(t, src, token.Int(3)); got.I != 6 {
		t.Fatalf("len = %s", got)
	}
}

func TestLoopParallelismUnfolds(t *testing.T) {
	// Loop iterations that only depend on the index (element stores) can
	// overlap: the interpreter's ideal profile must show parallelism
	// greater than 1.
	src := `
def main(n) =
  { a = array(n);
    fill = (initial z <- 0
            for i from 0 to n - 1 do
              a[i] <- i * i * i + i;
              new z <- z
            return 0);
    a[0] + fill };
`
	_, it, err := Run(src, token.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if it.MaxParallelism() < 4 {
		t.Fatalf("expected unfolded loop parallelism, profile max = %d", it.MaxParallelism())
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"def main() = x;", "undefined variable"},
		{"def main() = f(1);", "undefined function"},
		{"def f(x) = x; def f(y) = y; def main() = 1;", "duplicate definition"},
		{"def f(x) = x; def main() = f(1, 2);", "takes 1 arguments"},
		{"def f(x) = x; def main() = f;", "used as a value"},
		{"def main(x, x) = x;", "duplicate parameter"},
		{"def notmain(x) = x;", "no main"},
		{"def main() = (initial s <- 0 for i from 1 to 3 do new t <- s return s);", "not a circulating loop variable"},
		{"def main() = (initial s <- 0; s <- 1 for i from 1 to 3 do new s <- s return s);", "duplicate initial binding"},
		{"def main() = (initial i <- 0 for i from 1 to 3 do new i <- i return i);", "shadows loop index"},
		{"def main() = sqrt(1, 2);", "takes 1 argument"},
		{"def main() = if 1 then 2 else 3;", "not boolean"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("%s: expected error containing %q, got none", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"def main() = ;",
		"def main() = 1",
		"def = 1;",
		"def main( = 1;",
		"def main() = (initial s <- 0 for i from 1 to 3 do return s);",
		"def main() = { x = 1; };",
		"def main() = 1 $ 2;",
		"def main() = if 1 then 2;",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := lexAll("1 2.5 1e3 1.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].isFloat || toks[0].intVal != 1 {
		t.Fatalf("tok 0: %+v", toks[0])
	}
	if !toks[1].isFloat || toks[1].fltVal != 2.5 {
		t.Fatalf("tok 1: %+v", toks[1])
	}
	if !toks[2].isFloat || toks[2].fltVal != 1000 {
		t.Fatalf("tok 2: %+v", toks[2])
	}
	if !toks[3].isFloat || toks[3].fltVal != 0.015 {
		t.Fatalf("tok 3: %+v", toks[3])
	}
	// a number followed by a bare dot is a lex error
	if _, err := lexAll("7."); err == nil {
		t.Fatal("trailing dot must be rejected")
	}
}

func TestComments(t *testing.T) {
	src := `
# leading comment
def main(a) = a + 1; # trailing
`
	if got := runMain(t, src, token.Int(1)); got.I != 2 {
		t.Fatalf("got %s", got)
	}
}

func TestCompiledGraphShape(t *testing.T) {
	prog, err := Compile(`
def main(n) =
  (initial s <- 0
   for i from 1 to n do new s <- s + i return s);
`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.CountOp(graph.OpL) < 2 || prog.CountOp(graph.OpD) < 2 ||
		prog.CountOp(graph.OpLInv) != 1 || prog.CountOp(graph.OpDInv) != 1 {
		t.Fatalf("loop operators missing from compiled graph: %v", prog.Stats())
	}
	if prog.CountOp(graph.OpGetContext) != 1 || prog.CountOp(graph.OpSwitch) < 2 {
		t.Fatalf("unexpected graph shape: %v", prog.Stats())
	}
	if len(prog.Blocks) != 2 {
		t.Fatalf("loop must compile to its own code block, got %d blocks", len(prog.Blocks))
	}
}

func TestCompilePlanMatchesInterpreter(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from 1 to n do new s <- s + i * 3 return s + 2);
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.NewInterp(prog).Run(token.Int(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := graph.NewInterpPlan(plan).Run(token.Int(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(want[0]) {
		t.Fatalf("CompilePlan run = %v, interpreter = %v", got, want)
	}
}

func TestLoopPropertySumMatchesClosedForm(t *testing.T) {
	src := `
def main(n) =
  (initial s <- 0
   for i from 1 to n do new s <- s + i return s);
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(raw uint8) bool {
		n := int64(raw % 60)
		it := graph.NewInterp(prog)
		res, err := it.Run(token.Int(n))
		if err != nil {
			return false
		}
		return res[0].I == n*(n+1)/2
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicCompilation(t *testing.T) {
	src := `
def f(x) = x + 1;
def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + f(i) return s);
`
	a, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dump() != b.Dump() {
		t.Fatal("compilation must be deterministic")
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
def main(n) =
  (initial x <- n; c <- 0
   while x != 1 do
     new x <- if x % 2 == 0 then x / 2 else 3 * x + 1;
     new c <- c + 1
   return c);
`
	if got := runMain(t, src, token.Int(27)); got.I != 111 {
		t.Fatalf("collatz(27) = %s, want 111", got)
	}
	if got := runMain(t, src, token.Int(1)); got.I != 0 {
		t.Fatalf("collatz(1) = %s, want 0", got)
	}
}

func TestWhileLoopGCD(t *testing.T) {
	src := `
def main(a, b) =
  (initial x <- a; y <- b
   while y != 0 do
     new x <- y;
     new y <- x % y
   return x);
`
	for _, c := range []struct{ a, b, want int64 }{
		{48, 18, 6}, {17, 5, 1}, {100, 100, 100}, {7, 0, 7},
	} {
		if got := runMain(t, src, token.Int(c.a), token.Int(c.b)); got.I != c.want {
			t.Fatalf("gcd(%d,%d) = %s, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestWhileLoopZeroIterations(t *testing.T) {
	src := `
def main(n) =
  (initial x <- n
   while x > 100 do
     new x <- x - 1
   return x);
`
	if got := runMain(t, src, token.Int(5)); got.I != 5 {
		t.Fatalf("got %s, want 5 (zero iterations)", got)
	}
}

func TestWhileLoopNeedsBinding(t *testing.T) {
	_, err := Compile(`def main(n) = (while n > 0 do new n <- n - 1 return n);`)
	if err == nil || !strings.Contains(err.Error(), "initial binding") {
		t.Fatalf("want initial-binding error, got %v", err)
	}
}

func TestWhileNestedInFor(t *testing.T) {
	// total Collatz steps over several starting points
	src := `
def steps(n) =
  (initial x <- n; c <- 0
   while x != 1 do
     new x <- if x % 2 == 0 then x / 2 else 3 * x + 1;
     new c <- c + 1
   return c);
def main(n) =
  (initial total <- 0
   for i from 1 to n do
     new total <- total + steps(i)
   return total);
`
	// steps: 1->0 2->1 3->7 4->2 5->5 => 15
	if got := runMain(t, src, token.Int(5)); got.I != 15 {
		t.Fatalf("got %s, want 15", got)
	}
}

func TestAppendBasic(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i * 10;
           new z <- z
         return 0);
    b = append(a, 2, 999);
    a[2] + b[2] + b[0] + f };
`
	// a[2]=20 unchanged, b[2]=999, b[0]=0 copied
	if got := runMain(t, src, token.Int(5)); got.I != 20+999+0 {
		t.Fatalf("append = %s, want 1019", got)
	}
}

func TestAppendIsPersistent(t *testing.T) {
	// Both versions coexist: the functional-array property of footnote 4.
	src := `
def sumOf(a, n) =
  (initial s <- 0
   for i from 0 to n - 1 do
     new s <- s + a[i]
   return s);
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- 1;
           new z <- z
         return 0);
    b = append(a, 0, 100);
    c = append(b, 1, 200);
    sumOf(a, n) * 1000000 + sumOf(b, n) * 1000 + sumOf(c, n) + f };
`
	// n=4: a sums 4; b = 100+1+1+1 = 103; c = 100+200+1+1 = 302
	if got := runMain(t, src, token.Int(4)); got.I != 4*1000000+103*1000+302 {
		t.Fatalf("persistence broken: %s", got)
	}
}

func TestAppendChainAcrossLoop(t *testing.T) {
	// Fold append through a loop: a counting-sort-ish histogram.
	src := `
def main(n) =
  { a0 = array(3);
    seed = (initial z <- 0
            for i from 0 to 2 do
              a0[i] <- 0;
              new z <- z
            return 0);
    h = (initial a <- a0
         for i from 1 to n do
           new a <- append(a, i % 3, a[i % 3] + 1)
         return a);
    h[0] * 100 + h[1] * 10 + h[2] + seed };
`
	// n=7: residues 1,2,0,1,2,0,1 -> counts 2,3,2
	if got := runMain(t, src, token.Int(7)); got.I != 2*100+3*10+2 {
		t.Fatalf("histogram = %s, want 232", got)
	}
}

func TestAppendUserDefinitionWins(t *testing.T) {
	src := `
def append(a, i, v) = i + v;
def main(n) = append(n, 1, 2);
`
	if got := runMain(t, src, token.Int(9)); got.I != 3 {
		t.Fatalf("user append must shadow the prelude: %s", got)
	}
}

func TestAppendOnMachines(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i;
           new z <- z
         return 0);
    b = append(a, 1, 50);
    (initial s <- f
     for i from 0 to n - 1 do
       new s <- s + b[i]
     return s) };
`
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	args := []token.Value{token.Int(6)}
	want := runInterpO(prog, args)
	if !want.ok {
		t.Fatal("reference failed")
	}
	if got := runMachineO(prog, args); got != want {
		t.Fatalf("machine %+v, want %+v", got, want)
	}
	if got := runEmulatorO(prog, args); got != want {
		t.Fatalf("emulator %+v, want %+v", got, want)
	}
}
