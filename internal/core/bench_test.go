package core

import (
	"testing"

	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

// BenchmarkMatMul4 drives one full matmul(4) run on 8 PEs and reports
// simulated Mcycles per second. Each iteration builds its machine with
// NewMachine, so the plan build is part of the measured cost, as it is for
// every caller.
func BenchmarkMatMul4(b *testing.B) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMachine(Config{PEs: 8}, prog)
		if _, err := m.Run(500_000_000, token.Int(4)); err != nil {
			b.Fatal(err)
		}
		cycles += uint64(m.Now())
	}
	b.StopTimer()
	if b.N > 0 {
		perRun := float64(cycles) / float64(b.N)
		secs := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(perRun/secs/1e6, "mcycles/s")
	}
}

// TestHotPathAllocations pins what a firing costs the host heap when
// tracing is off. Tokens are built from the plan and trace arguments are
// boxed only behind a Config.Trace check, so a long loop allocates nothing
// per firing, and a call-heavy program allocates less than once per
// invocation context (the record pool and the stage rings absorb the
// rest).
func TestHotPathAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		src  string
		n    int64
		per  func(Summary) uint64
		max  float64
	}{
		{"sumloop(20000) per firing", workload.SumLoopID, 20000, func(s Summary) uint64 { return s.Fired }, 0.01},
		{"fib(18) per context", workload.FibID, 18, func(s Summary) uint64 { return s.CtxAllocated }, 1},
	} {
		prog, err := id.Compile(c.src)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		var sum Summary
		allocs := testing.AllocsPerRun(1, func() {
			m := NewMachine(Config{PEs: 8}, prog)
			if _, err := m.Run(500_000_000, token.Int(c.n)); err != nil {
				t.Fatalf("%s: run: %v", c.name, err)
			}
			sum = m.Summarize()
		})
		per := allocs / float64(c.per(sum))
		t.Logf("%s: %.0f mallocs, %.4f each", c.name, allocs, per)
		if per >= c.max {
			t.Errorf("%s: %.4f mallocs, want < %g", c.name, per, c.max)
		}
	}
}
