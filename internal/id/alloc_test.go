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
