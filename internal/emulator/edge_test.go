package emulator

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/simtest"
	"repro/internal/token"
	"repro/internal/workload"
)

// buildFor compiles src and returns the program plus entry args.
func buildFor(t *testing.T, src string, args ...token.Value) (*graph.Program, []token.Value) {
	t.Helper()
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	full, err := id.EntryArgs(prog, args)
	if err != nil {
		t.Fatalf("entry args: %v", err)
	}
	return prog, full
}

// TestOneNodeCube runs a recursive and an I-structure program on a
// dimension-zero hypercube: one PE+switch module, no routable links. All
// traffic is local delivery; the answers must still match the reference
// interpreter.
func TestOneNodeCube(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		arg  int64
	}{
		{"fib", workload.FibID, 10},
		{"producer-consumer", workload.ProducerConsumerID, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, args := buildFor(t, tc.src, token.Int(tc.arg))
			want, err := graph.NewInterp(prog).Run(args...)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			f, err := Build(Config{}, prog)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if f.NumNodes() != 1 {
				t.Fatalf("NumNodes = %d, want 1", f.NumNodes())
			}
			got, err := f.Run(args...)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(got) != 1 || len(want) != 1 || got[0] != want[0] {
				t.Fatalf("results %v, want %v", got, want)
			}
			if f.Hops.Load() != 0 {
				t.Fatalf("a 1-node cube forwarded %d messages", f.Hops.Load())
			}
		})
	}
}

// TestInvalidSizesErrorCleanly pins the error path: a dimension outside
// [0, maxDim] must be rejected with an error, not a panic or a silently
// defaulted machine.
func TestInvalidSizesErrorCleanly(t *testing.T) {
	prog, _ := buildFor(t, workload.FibID, token.Int(1))
	for _, dim := range []int{-1, -2, maxDim + 1} {
		if _, err := Build(Config{Dim: dim}, prog); err == nil {
			t.Errorf("Build accepted dimension %d", dim)
		}
	}
	f, err := Build(Config{Dim: 3}, prog)
	if err != nil {
		t.Fatalf("Build(Dim: 3): %v", err)
	}
	if f.NumNodes() != 8 {
		t.Fatalf("Dim 3 built %d nodes", f.NumNodes())
	}
}

// twoNodeGolden is the schedule-independent observable set of a 2-node
// run: the answer and the dataflow firing/message totals are fixed by
// the program, not by goroutine interleaving.
type twoNodeGolden struct {
	Result   int64  `json:"result"`
	Nodes    int    `json:"nodes"`
	Fired    uint64 `json:"fired"`
	Messages uint64 `json:"messages"`
	Hops     uint64 `json:"hops"`
}

// TestTwoNodeGolden pins a 2-node run bit-for-bit.
func TestTwoNodeGolden(t *testing.T) {
	prog, args := buildFor(t, workload.SumLoopID, token.Int(12))
	f, err := Build(Config{Dim: 1}, prog)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := f.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	v, err := res[0].AsInt()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	simtest.Check(t, "testdata/two_node_sumloop.json", twoNodeGolden{
		Result:   v,
		Nodes:    f.NumNodes(),
		Fired:    f.Fired.Load(),
		Messages: f.Messages.Load(),
		Hops:     f.Hops.Load(),
	})
}
