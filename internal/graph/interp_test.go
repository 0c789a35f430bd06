package graph

import (
	"testing"

	"repro/internal/token"
)

// TestInterpAllocations pins the interpreter's steady state to no heap
// allocation per wave: the two wave worklists are reused for the whole
// run, so a 20000-iteration loop (240k firings) allocates only while its
// buffers and tables first grow. The bound sits far below the ~300k
// mallocs that regrowing a worklist every wave makes.
func TestInterpAllocations(t *testing.T) {
	cg, err := Compile(buildSumLoop(t))
	if err != nil {
		t.Fatal(err)
	}
	var fired uint64
	allocs := testing.AllocsPerRun(1, func() {
		it := NewInterpPlan(cg)
		res, err := it.Run(token.Int(20000))
		if err != nil {
			t.Fatal(err)
		}
		if res[0].I != 20000*20001/2 {
			t.Fatalf("sum(20000) = %s", res[0])
		}
		fired = it.Fired()
	})
	t.Logf("sumloop(20000): %.0f mallocs over %d firings", allocs, fired)
	if allocs >= 1000 {
		t.Errorf("sumloop(20000): %.0f mallocs, want < 1000", allocs)
	}
}
