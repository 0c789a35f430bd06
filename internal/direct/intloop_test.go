package direct

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
)

// TestIntLoopOpsMatchInterp runs one accelerable loop per op kind of the
// int64 loop program, plus the edge values where int64 arithmetic and
// graph.Eval's float64 comparison tower part ways. Each loop must lower to
// an int plan that uses its op, and must give the reference interpreter's
// results and firing count, or its fault text behind the backend's
// "direct: " prefix. (A faulting run's firing count depends on the
// schedule: the interpreter finishes the wave the fault is in.)
func TestIntLoopOpsMatchInterp(t *testing.T) {
	const tmpl = `
def main(n, k, m) =
  (initial s <- 0; i <- 0
   while %s do
     new s <- %s;
     new i <- i + 1
   return s);
`
	// A predicate that is false too early only hands the loop to the
	// delivery engine sooner, which is slower but not wrong. So each
	// predicate row puts its op where a wrong answer would keep the loop
	// running past its end, which the results expose.
	const p53 = 1 << 53
	cases := []struct {
		name       string
		pred, body string
		n, k, m    int64
		op         iopKind
	}{
		{"add", "i < n", "s + i", 10, 3, -1, iAdd},
		{"sub", "i < n", "s - i", 10, 3, -1, iSub},
		{"mul", "i < n", "s * 2 + i", 10, 3, -1, iMul},
		{"div", "i < n", "s + (i * 7) / k", 10, 3, -1, iDiv},
		{"mod", "i < n", "s + i % k", 10, 3, -1, iMod},
		{"min", "i < n", "s + min(i, k)", 10, 3, -1, iMin},
		{"max", "i < n", "s + max(i, k)", 10, 3, -1, iMax},
		{"lt", "i < n", "s + i", 10, 3, -1, iLT},
		{"le", "i <= n", "s + i", 10, 3, -1, iLE},
		{"gt", "n > i", "s + i", 10, 3, -1, iGT},
		{"ge", "n >= i + 1", "s + i", 10, 3, -1, iGE},
		{"int ==", "(i == n) == false", "s + i", 10, 3, -1, iEQf},
		{"int !=", "i != n", "s + i", 10, 3, -1, iNEf},
		{"bool ==", "i < n or ((i < n) == (k > 0))", "s + i", 10, 3, -1, iEQb},
		{"bool !=", "i < n or ((i < n) != (k < 0))", "s + i", 10, 3, -1, iNEb},
		{"and", "i < n and k > 0", "s + i", 10, 3, -1, iAnd},
		{"or", "i < n or k < 0", "s + i", 10, 3, -1, iOr},
		{"not", "i < n or not (k > 0)", "s + i", 10, 3, -1, iNot},
		{"neg", "i < n", "-s + i", 10, 3, -1, iNeg},
		{"abs", "i < n", "s + abs(i - k)", 10, 3, -1, iAbs},
		{"mov", "i < n", "s + floor(i)", 10, 3, -1, iMov},

		{"div by zero mid-loop", "i < n", "s + 100 / (k - i)", 10, 3, -1, iDiv},
		{"mod by zero mid-loop", "i < n", "s + 100 % (k - i)", 10, 3, -1, iMod},
		{"MinInt64 / -1", "i < n", "k / m", 3, math.MinInt64, -1, iDiv},
		{"MinInt64 % -1", "i < n", "k % m", 3, math.MinInt64, -1, iMod},
		{"abs(MinInt64)", "i < n", "abs(k)", 3, math.MinInt64, -1, iAbs},
		{"-MinInt64", "i < n", "-k", 3, math.MinInt64, -1, iNeg},
		// float64(2^53+1) rounds to 2^53, so under graph.Eval's tower each
		// predicate is false at once; an int64 comparison would keep the
		// loop running.
		{"2^53 < 2^53+1", "i < n and k < m", "s + i", 10, p53, p53 + 1, iLT},
		{"2^53 >= 2^53+1", "i < n and not (k >= m)", "s + i", 10, p53, p53 + 1, iGE},
		{"2^53 == 2^53+1", "i < n and not (k == m)", "s + i", 10, p53, p53 + 1, iEQf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []token.Value{token.Int(tc.n), token.Int(tc.k), token.Int(tc.m)}
			matchInterpOnIntPlan(t, fmt.Sprintf(tmpl, tc.pred, tc.body), tc.op, args...)
		})
	}
	// A loop that types as int64 can still receive a float at run time;
	// the accelerator then hands it to the delivery engine at initiation 1.
	t.Run("float entry value", func(t *testing.T) {
		matchInterpOnIntPlan(t, fmt.Sprintf(tmpl, "i < n", "s + k"), iAdd, token.Int(10), token.Float(2.5), token.Int(-1))
	})
}

// matchInterpOnIntPlan compiles src, requires its loop to lower to an int
// plan that uses an op of kind op, and runs it on the direct backend and
// on the reference interpreter with args.
func matchInterpOnIntPlan(t *testing.T, src string, op iopKind, args ...token.Value) {
	t.Helper()
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := graph.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	var ip *intPlan
	for b := range cg.Blocks {
		if lp := lowerLoop(cg.Block(graph.BlockID(b))); lp != nil {
			ip = lp.ip
		}
	}
	if ip == nil {
		t.Fatal("the loop got no int plan")
	}
	uses := false
	for _, o := range ip.ops {
		uses = uses || o.op == op
	}
	if !uses {
		t.Fatalf("the int plan has no op of kind %d: %+v", op, ip.ops)
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
