package id

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/emulator"
	"repro/internal/graph"
	"repro/internal/token"
)

// TestAllocateSizeBounds runs one allocation on every backend that
// executes MiniID. A structure reference holds a 32-bit length, so a size
// must lie in [0, 2³²); any other size faults with "bad size" before a
// cell is allocated, and is never narrowed to a smaller array.
func TestAllocateSizeBounds(t *testing.T) {
	prog, err := Compile("def main(n) = { a = array(n); len(a) };")
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		run  func(n token.Value) ([]token.Value, error)
	}{
		{"ttda", func(n token.Value) ([]token.Value, error) {
			return core.NewMachine(core.Config{PEs: 4}, prog).Run(1_000_000, n)
		}},
		{"interp", func(n token.Value) ([]token.Value, error) { return graph.NewInterp(prog).Run(n) }},
		{"direct", func(n token.Value) ([]token.Value, error) { return direct.New(prog).Run(n) }},
		{"emulator", func(n token.Value) ([]token.Value, error) {
			return emulator.New(emulator.Config{Dim: 2}, prog).Run(n)
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			t.Run("5", func(t *testing.T) {
				res, err := b.run(token.Int(5))
				if err != nil || len(res) != 1 || res[0].I != 5 {
					t.Fatalf("len(array(5)) = %v, %v; want [5]", res, err)
				}
			})
			for _, n := range []int64{1 << 32, 1<<32 + 5, 1_000_000_000_000, -1} {
				t.Run(fmt.Sprint(n), func(t *testing.T) {
					res, err := b.run(token.Int(n))
					if err == nil || !strings.Contains(err.Error(), "bad size") {
						t.Fatalf("len(array(%d)) = %v, %v; want a bad size fault", n, res, err)
					}
				})
			}
		})
	}
}

// TestAllocateDispositions runs each boundary allocation program on every
// backend that executes MiniID and requires one disposition per program:
// the same answer on every backend, or the same fault class. A size
// outside [0, 2³²) is a bad size; a size inside it that the job's cells
// cannot hold, at once or summed over a loop, exhausts the I-structure
// space: the TTDA's ISCellsPerPE × PEs, or graph.CellBudget on the
// host-side backends. Contexts have one budget everywhere,
// graph.ContextBudget per run: a recursion that never returns and a loop
// that calls once per iteration both exhaust it. A second write to an
// I-structure cell is the single-assignment fault everywhere, named by
// the cell's global address (on four PEs, cell 5 lives on PE 1).
func TestAllocateDispositions(t *testing.T) {
	const sized = "def main(n) = { a = array(n); len(a) };"
	const loop = `
def main(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- s + len(array(65536))
   return s);
`
	const recursion = "def f(x) = f(x + 1); def main(n) = f(n);"
	const calls = `
def g(x) = x + 1;
def main(n) =
  (initial s <- 0
   for i from 1 to n do
     new s <- g(s)
   return s);
`
	cases := []struct {
		name, src string
		arg       int64
		want      string // "=answer", or the fault class the error names
	}{
		{"size 0", sized, 0, "=0"},
		{"size 5", sized, 5, "=5"},
		{"size 2^32-1", sized, 1<<32 - 1, "space exhausted"},
		{"size 2^32", sized, 1 << 32, "bad size"},
		{"size -1", sized, -1, "bad size"},
		{"allocating loop", loop, 100, "space exhausted"},
		{"unbounded recursion", recursion, 0, "context space exhausted"},
		{"budget + 1 calls", calls, graph.ContextBudget + 1, "context space exhausted"},
		{"double write", "def main(n) = { a = array(8); a[5] <- n; a[5] <- n + 1; a[5] };", 5,
			"address 5 already written (single-assignment violation)"},
	}
	backends := []struct {
		name string
		run  func(p *graph.Program, n token.Value) ([]token.Value, error)
	}{
		{"ttda", func(p *graph.Program, n token.Value) ([]token.Value, error) {
			return core.NewMachine(core.Config{PEs: 4}, p).Run(10_000_000, n)
		}},
		{"interp", func(p *graph.Program, n token.Value) ([]token.Value, error) { return graph.NewInterp(p).Run(n) }},
		{"direct", func(p *graph.Program, n token.Value) ([]token.Value, error) { return direct.New(p).Run(n) }},
		{"emulator", func(p *graph.Program, n token.Value) ([]token.Value, error) {
			return emulator.New(emulator.Config{Dim: 2}, p).Run(n)
		}},
	}
	for _, tc := range cases {
		prog, err := Compile(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, b := range backends {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				res, err := b.run(prog, token.Int(tc.arg))
				var got string
				switch {
				case err != nil:
					got = err.Error()
				case len(res) == 1:
					got = "=" + res[0].String()
				default:
					got = fmt.Sprintf("=%v", res)
				}
				if answer := strings.HasPrefix(tc.want, "="); answer && got != tc.want || !answer && !strings.Contains(got, tc.want) {
					t.Fatalf("main(%d) gave %q; every backend must give %q", tc.arg, got, tc.want)
				}
			})
		}
	}
}
