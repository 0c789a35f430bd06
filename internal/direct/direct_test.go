package direct

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

// workloadCases drives every committed workload program through the
// backend; the interpreter is the reference, the pure-Go checksums pin
// both against hand arithmetic.
var workloadCases = []struct {
	name string
	src  string
	args []token.Value
	want func() (int64, bool) // pure-Go expectation, when one exists
}{
	{"sumloop", workload.SumLoopID, []token.Value{token.Int(1000)},
		func() (int64, bool) { return 500500, true }},
	{"fib", workload.FibID, []token.Value{token.Int(12)},
		func() (int64, bool) { return 144, true }},
	{"trapezoid", workload.TrapezoidID, []token.Value{token.Float(0), token.Float(1), token.Float(100)}, nil},
	{"producer-consumer", workload.ProducerConsumerID, []token.Value{token.Int(12)},
		func() (int64, bool) { return 144, true }},
	{"matmul", workload.MatMulID, []token.Value{token.Int(4)},
		func() (int64, bool) { return workload.MatMulChecksum(4), true }},
	{"collatz", workload.CollatzID, []token.Value{token.Int(27)},
		func() (int64, bool) { return 111, true }},
	{"wavefront", workload.WavefrontID, []token.Value{token.Int(8)},
		func() (int64, bool) { return workload.WavefrontExpected(8), true }},
	{"mergesort", workload.MergeSortID, []token.Value{token.Int(16)},
		func() (int64, bool) { return workload.MergeSortChecksum(16), true }},
}

// TestDirectMatchesInterpreterOnWorkloads demands bit-identical results
// AND identical firing counts on every workload program: the direct
// backend fires exactly the instruction activations the reference
// interpreter fires, just scheduled depth-first instead of in waves.
func TestDirectMatchesInterpreterOnWorkloads(t *testing.T) {
	for _, tc := range workloadCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := id.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			args, err := id.EntryArgs(prog, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			it := graph.NewInterp(prog)
			want, err := it.Run(args...)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			x := New(prog)
			got, err := x.Run(args...)
			if err != nil {
				t.Fatalf("direct: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("direct returned %d results, interp %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("result %d: direct %s, interp %s", i, got[i], want[i])
				}
			}
			if x.Fired() != it.Fired() {
				t.Fatalf("direct fired %d instructions, interp fired %d", x.Fired(), it.Fired())
			}
			if tc.want != nil {
				if exp, ok := tc.want(); ok {
					v, err := got[0].AsInt()
					if err != nil {
						t.Fatal(err)
					}
					if v != exp {
						t.Fatalf("direct answer %d, pure-Go %d", v, exp)
					}
				}
			}
		})
	}
}

// TestDirectSharedPlan pins the compile-once-run-many contract: many
// executors over one plan, interleaved with an interpreter on the same
// plan, all agree.
func TestDirectSharedPlan(t *testing.T) {
	prog, err := id.Compile(workload.SumLoopID)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := graph.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); n <= 40; n++ {
		want, err := graph.NewInterpPlan(plan).Run(token.Int(n))
		if err != nil {
			t.Fatalf("n=%d interp: %v", n, err)
		}
		got, err := NewFromPlan(plan).Run(token.Int(n))
		if err != nil {
			t.Fatalf("n=%d direct: %v", n, err)
		}
		if len(got) != 1 || got[0] != want[0] {
			t.Fatalf("n=%d: direct %v, interp %v", n, got, want)
		}
	}
}

// TestDirectStructure pins I-structure inspection: after a fill loop the
// backend exposes the same element values as the interpreter.
func TestDirectStructure(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- (i + 1) * (i + 1);
           new z <- z
         return 0);
    a[n - 1] + p };
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	x := New(prog)
	res, err := x.Run(token.Int(5))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res[0].AsInt(); v != 25 {
		t.Fatalf("result = %v, want 25", res[0])
	}
	got := x.Structure(token.Ref{Base: 0, Len: 5})
	for i, v := range got {
		want := int64(i+1) * int64(i+1)
		if n, err := v.AsInt(); err != nil || n != want {
			t.Fatalf("cell %d = %s, want %d", i, v, want)
		}
	}
}

// faultCases are programs whose runs must fail, and fail the same way the
// interpreter fails (error dispositions agree even though the backends
// schedule differently).
var faultCases = []struct {
	name string
	src  string
	arg  int64
	frag string // substring of the direct backend's error
}{
	{"single-assignment", `def main(n) = { a = array(2); a[0] <- 1; a[0] <- 2; a[0] };`, 1, "single-assignment"},
	{"deadlocked-fetch", `def main(n) = { a = array(2); a[0] <- 1; a[1] };`, 1, "deadlocked"},
	{"division-by-zero", `def main(n) = 1 / (n - n);`, 3, "division by zero"},
}

func TestDirectFaults(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := id.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			_, ierr := graph.NewInterp(prog).Run(token.Int(tc.arg))
			if ierr == nil {
				t.Fatal("interpreter accepted the faulting program; the case is stale")
			}
			_, derr := Run(prog, token.Int(tc.arg))
			if derr == nil {
				t.Fatalf("direct backend accepted a program the interpreter rejects (%v)", ierr)
			}
			if !strings.Contains(derr.Error(), tc.frag) {
				t.Fatalf("direct error %q lacks %q", derr, tc.frag)
			}
		})
	}
}

// TestDirectNonTermination pins the firing bound: infinite recursion must
// exhaust SetMaxSteps, not the Go stack — the explicit activation stack's
// job.
func TestDirectNonTermination(t *testing.T) {
	prog, err := id.Compile(`def f(x) = f(x + 1);` + "\n" + `def main(n) = f(n);`)
	if err != nil {
		t.Fatal(err)
	}
	x := New(prog)
	x.SetMaxSteps(100_000)
	_, err = x.Run(token.Int(1))
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want a firing-bound error", err)
	}
}

// TestDirectDeepLoop runs a million-iteration loop — far beyond what a
// recursion-based lowering could survive — and checks the closed form.
func TestDirectDeepLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prog, err := id.Compile(workload.SumLoopID)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	x := New(prog)
	x.SetMaxSteps(100_000_000)
	res, err := x.Run(token.Int(n))
	if err != nil {
		t.Fatal(err)
	}
	v, err := res[0].AsInt()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n + 1) / 2; v != want {
		t.Fatalf("sum(1..%d) = %d, want %d", n, v, want)
	}
}

// TestDirectArityError pins the argument-count check.
func TestDirectArityError(t *testing.T) {
	prog, err := id.Compile(workload.FibID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, token.Int(1), token.Int(2)); err == nil {
		t.Fatal("direct backend accepted the wrong argument count")
	}
}

// TestIntLoopOpsMatchInterp runs one loop per integer op of graph.Eval,
// plus the edge values where int64 arithmetic and Eval's float64
// comparisons part ways, on the delivery engine and on the reference
// interpreter. Each must give the interpreter's results and firing count,
// or its fault text behind the backend's "direct: " prefix. (A faulting
// run's firing count depends on the schedule: the interpreter finishes
// the wave the fault is in.) graph's TestEvalIntEdges pins the edge values
// themselves.
func TestIntLoopOpsMatchInterp(t *testing.T) {
	const tmpl = `
def main(n, k, m) =
  (initial s <- 0; i <- 0
   while %s do
     new s <- %s;
     new i <- i + 1
   return s);
`
	// Each predicate row puts its op where a wrong answer would stop the
	// loop early or keep it running past its end, which the results
	// expose.
	const p53 = 1 << 53
	cases := []struct {
		name       string
		pred, body string
		n, k, m    int64
	}{
		{"add", "i < n", "s + i", 10, 3, -1},
		{"sub", "i < n", "s - i", 10, 3, -1},
		{"mul", "i < n", "s * 2 + i", 10, 3, -1},
		{"div", "i < n", "s + (i * 7) / k", 10, 3, -1},
		{"mod", "i < n", "s + i % k", 10, 3, -1},
		{"min", "i < n", "s + min(i, k)", 10, 3, -1},
		{"max", "i < n", "s + max(i, k)", 10, 3, -1},
		{"lt", "i < n", "s + i", 10, 3, -1},
		{"le", "i <= n", "s + i", 10, 3, -1},
		{"gt", "n > i", "s + i", 10, 3, -1},
		{"ge", "n >= i + 1", "s + i", 10, 3, -1},
		{"int ==", "(i == n) == false", "s + i", 10, 3, -1},
		{"int !=", "i != n", "s + i", 10, 3, -1},
		{"bool ==", "i < n or ((i < n) == (k > 0))", "s + i", 10, 3, -1},
		{"bool !=", "i < n or ((i < n) != (k < 0))", "s + i", 10, 3, -1},
		{"and", "i < n and k > 0", "s + i", 10, 3, -1},
		{"or", "i < n or k < 0", "s + i", 10, 3, -1},
		{"not", "i < n or not (k > 0)", "s + i", 10, 3, -1},
		{"neg", "i < n", "-s + i", 10, 3, -1},
		{"abs", "i < n", "s + abs(i - k)", 10, 3, -1},
		{"mov", "i < n", "s + floor(i)", 10, 3, -1},

		{"div by zero mid-loop", "i < n", "s + 100 / (k - i)", 10, 3, -1},
		{"mod by zero mid-loop", "i < n", "s + 100 % (k - i)", 10, 3, -1},
		{"MinInt64 / -1", "i < n", "k / m", 3, math.MinInt64, -1},
		{"MinInt64 % -1", "i < n", "k % m", 3, math.MinInt64, -1},
		{"abs(MinInt64)", "i < n", "abs(k)", 3, math.MinInt64, -1},
		{"-MinInt64", "i < n", "-k", 3, math.MinInt64, -1},
		// float64(2^53+1) rounds to 2^53, so under graph.Eval's comparisons
		// each predicate is false at once; an int64 comparison would keep
		// the loop running.
		{"2^53 < 2^53+1", "i < n and k < m", "s + i", 10, p53, p53 + 1},
		{"2^53 >= 2^53+1", "i < n and not (k >= m)", "s + i", 10, p53, p53 + 1},
		{"2^53 == 2^53+1", "i < n and not (k == m)", "s + i", 10, p53, p53 + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []token.Value{token.Int(tc.n), token.Int(tc.k), token.Int(tc.m)}
			matchInterp(t, fmt.Sprintf(tmpl, tc.pred, tc.body), args...)
		})
	}
	// A loop that types as int64 can still receive a float at run time.
	t.Run("float entry value", func(t *testing.T) {
		matchInterp(t, fmt.Sprintf(tmpl, "i < n", "s + k"), token.Int(10), token.Float(2.5), token.Int(-1))
	})
}

// matchInterp compiles src and runs it on the direct backend and on the
// reference interpreter with args.
func matchInterp(t *testing.T, src string, args ...token.Value) {
	t.Helper()
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := graph.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	it := graph.NewInterpPlan(cg)
	want, werr := it.Run(args...)
	x := NewFromPlan(cg)
	got, gerr := x.Run(args...)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != "direct: "+werr.Error() {
		t.Fatalf("direct error %v, interp error %v", gerr, werr)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("direct %v, interp %v", got, want)
	}
	if werr == nil && x.Fired() != it.Fired() {
		t.Fatalf("direct fired %d, interp %d", x.Fired(), it.Fired())
	}
}

// TestDirectLoopAllocationIsFlat pins the delivery engine's steady state:
// a sequential loop reuses its iteration frame and the consumed front of
// the D lane, so what a run allocates does not grow with its iteration
// count.
func TestDirectLoopAllocationIsFlat(t *testing.T) {
	for _, src := range []string{
		workload.SumLoopID,
		`def main(n) = (initial s <- 0 for i from 1 to n do new s <- if i % 2 == 0 then s + i else s - 1 return s);`,
	} {
		prog, err := id.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		alloc := func(n int64) uint64 {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			if _, err := New(prog).Run(token.Int(n)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&b)
			return b.TotalAlloc - a.TotalAlloc
		}
		small, large := alloc(100), alloc(100_000)
		if large > small+64<<10 {
			t.Fatalf("100 iterations allocate %d B, 100,000 allocate %d B\n%s", small, large, src)
		}
	}
}
