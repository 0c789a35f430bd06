package id

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/token"
)

// FuzzCompiledEquivalence is the differential fuzz target for the
// ahead-of-time compilation stage: any MiniID program that compiles must
// behave bit-identically on the cycle-accurate machine whether NewMachine
// compiles the plan itself or NewMachineWithPlan is handed a fresh
// graph.Compile plan — same results, same error disposition, same cycle
// count, same statistics.
func FuzzCompiledEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(3))
	}
	f.Add("def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i * i return s);", int64(6))
	f.Add("def f(x) = if x < 2 then 1 else x * f(x - 1);\ndef main(n) = f(n);", int64(5))
	f.Add("def main(n) = { a = array(n + 1); a[0] <- 2 + 3 * 4; a[0] + (7 - 7) };", int64(2))
	f.Fuzz(func(t *testing.T, src string, n int64) {
		n &= 7 // keep runs tiny: the machine is cycle-accurate
		prog, err := Compile(src)
		if err != nil {
			return
		}
		var ints []token.Value
		for range prog.Entry().Entries {
			ints = append(ints, token.Int(n))
		}
		args, err := EntryArgs(prog, ints)
		if err != nil {
			return
		}

		type run struct {
			ok   bool
			vals string
			sum  core.Summary
		}
		// The cycle budget is deliberately small: fuzz programs are tiny,
		// and a generated infinite recursion must exhaust it inside the
		// fuzzer's per-input deadline. Both constructions share the budget,
		// so a timeout is itself compared for equivalence.
		exec := func(m *core.Machine) run {
			res, err := m.Run(200_000, args...)
			if err != nil {
				return run{}
			}
			return run{ok: true, vals: stringify(res), sum: m.Summarize()}
		}

		own := exec(core.NewMachine(core.Config{PEs: 3, NetLatency: 3}, prog))
		plan, err := graph.Compile(prog)
		if err != nil {
			t.Fatalf("compiled program has no plan: %v", err)
		}
		given := exec(core.NewMachineWithPlan(core.Config{PEs: 3, NetLatency: 3}, plan))
		if own != given {
			t.Fatalf("machine on a given plan diverged from one that compiled its own:\n  own   %+v\n  given %+v\nprogram:\n%s", own, given, src)
		}
	})
}

func stringify(vals []token.Value) string {
	s := ""
	for _, v := range vals {
		s += v.String() + ";"
	}
	return s
}
