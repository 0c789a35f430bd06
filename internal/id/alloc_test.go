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
// the cell's global address (on four PEs, cell 5 lives on PE 1). An
// address is an integer in [0, allocated top) on every backend: a FETCH
// or STORE at 2³²+5 is a bad address, never cell 5. Likewise a SEND-ARG
// handle is an integer in [0, 2³²): a handle 2³² past a live context is an
// unknown context, never that context. MiniID's bounds-checked indexing
// cannot form such an address, nor its calls such a handle, so those rows
// are hand-built graphs, the kind of program an object file carries.
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
		prog      *graph.Program // run instead of compiling src
		arg       int64
		want      string // "=answer", or the fault class the error names
	}{
		{name: "size 0", src: sized, arg: 0, want: "=0"},
		{name: "size 5", src: sized, arg: 5, want: "=5"},
		{name: "size 2^32-1", src: sized, arg: 1<<32 - 1, want: "space exhausted"},
		{name: "size 2^32", src: sized, arg: 1 << 32, want: "bad size"},
		{name: "size -1", src: sized, arg: -1, want: "bad size"},
		{name: "allocating loop", src: loop, arg: 100, want: "space exhausted"},
		{name: "unbounded recursion", src: recursion, arg: 0, want: "context space exhausted"},
		{name: "budget + 1 calls", src: calls, arg: graph.ContextBudget + 1, want: "context space exhausted"},
		{name: "double write", src: "def main(n) = { a = array(8); a[5] <- n; a[5] <- n + 1; a[5] };", arg: 5,
			want: "address 5 already written (single-assignment violation)"},
		{name: "fetch at 2^32+5", prog: rawAddressProgram(t, false), arg: 1<<32 + 5, want: "bad address 4294967301"},
		{name: "store at 2^32+5", prog: rawAddressProgram(t, true), arg: 1<<32 + 5, want: "bad address 4294967301"},
		{name: "send-arg at handle+2^32", prog: rawHandleProgram(t), arg: 1 << 32, want: "unknown context 4294967297"},
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
		prog := tc.prog
		if prog == nil {
			var err error
			if prog, err = Compile(tc.src); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
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

// rawAddressProgram builds main(n): allocate 8 cells, store 7 into cell 5,
// then FETCH (or, with store, STORE 9 at) the raw address n. The raw
// access waits for the allocation, so a backend that narrowed n to 32 bits
// before its bounds check would reach cell 5: the fetch would answer 7 and
// the store would be a second write to cell 5.
func rawAddressProgram(t *testing.T, store bool) *graph.Program {
	t.Helper()
	b := graph.NewBuilder("raw-address")
	bb := b.NewBlock("main", 1)
	n := bb.Entry(0)
	size := bb.OpLit(graph.OpConst, token.Int(8), 1, "8")
	alloc := bb.Op(graph.OpAllocate, "a = array(8)")
	a := bb.Fan(alloc)
	a5 := bb.OpLit(graph.OpIAddr, token.Int(5), 1, "&a[5]")
	st := bb.OpLit(graph.OpStore, token.Int(7), 1, "a[5] <- 7")
	length := bb.Op(graph.OpLen, "len(a)")
	zero := bb.OpLit(graph.OpMul, token.Int(0), 1, "len(a) * 0")
	raw := bb.Op(graph.OpAdd, "n + 0, after the allocation")
	ret := bb.Op(graph.OpReturn, "")
	bb.Connect(n, size, 0)
	bb.Connect(size, alloc, 0)
	bb.Connect(a, a5, 0)
	bb.Connect(a5, st, 0)
	bb.Connect(a, length, 0)
	bb.Connect(length, zero, 0)
	bb.Connect(n, raw, 0)
	bb.Connect(zero, raw, 1)
	if store {
		rawStore := bb.OpLit(graph.OpStore, token.Int(9), 1, "[n] <- 9")
		bb.Connect(raw, rawStore, 0)
		bb.Connect(length, ret, 0)
	} else {
		fetch := bb.Op(graph.OpFetch, "[n]")
		bb.Connect(raw, fetch, 0)
		bb.Connect(fetch, ret, 0)
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// rawHandleProgram builds main(n): call block "id" (which returns its
// argument), but send the argument n through the GET-CONTEXT handle plus
// n. The call's context is 1, so a backend that narrowed the handle to 32
// bits before its lookup would reach it at n = 2³² and answer n.
func rawHandleProgram(t *testing.T) *graph.Program {
	t.Helper()
	b := graph.NewBuilder("raw-handle")
	main := b.NewBlock("main", 1)
	callee := b.NewBlock("id", 1)
	callee.Connect(callee.Entry(0), callee.Op(graph.OpReturn, "x"), 0)
	n := main.Entry(0)
	getc := main.Emit(graph.Instruction{Op: graph.OpGetContext, Target: callee.ID(), Comment: "call id"})
	raw := main.Op(graph.OpAdd, "handle + n")
	send := main.Emit(graph.Instruction{Op: graph.OpSendArg, Target: callee.ID(), ArgIndex: 0})
	ret := main.Op(graph.OpReturn, "")
	main.Connect(n, getc, 0)
	main.Connect(getc, raw, 0)
	main.Connect(n, raw, 1)
	main.Connect(raw, send, 0)
	main.Connect(n, send, 1)
	main.ConnectReturn(getc, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
