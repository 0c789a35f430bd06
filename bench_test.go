// Package repro's benchmark harness: one benchmark per experiment (the
// paper's figures and quantitative claims, E1-E12 — see DESIGN.md for the
// index), plus throughput micro-benchmarks for each substrate. Run with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the reduced (Quick) sweeps and report
// their key figure as a custom metric; the full sweeps are printed by
// cmd/critique-bench and recorded in EXPERIMENTS.md.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

var quick = experiments.Options{Quick: true}

// runExperiment drives one experiment per iteration and fails the bench if
// the experiment errors.
func runExperiment(b *testing.B, f func(experiments.Options) experiments.Result) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := f(quick)
		if r.Err != nil {
			b.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
}

func BenchmarkE1LatencyTolerance(b *testing.B) { runExperiment(b, experiments.E1LatencyTolerance) }
func BenchmarkE2Contexts(b *testing.B)         { runExperiment(b, experiments.E2ContextCounts) }
func BenchmarkE3Coherence(b *testing.B)        { runExperiment(b, experiments.E3CacheCoherence) }
func BenchmarkE4ReadBeforeWrite(b *testing.B)  { runExperiment(b, experiments.E4ReadBeforeWrite) }
func BenchmarkE5Trapezoid(b *testing.B)        { runExperiment(b, experiments.E5Trapezoid) }
func BenchmarkE6Pipeline(b *testing.B)         { runExperiment(b, experiments.E6PipelineAnatomy) }
func BenchmarkE7Cmmp(b *testing.B)             { runExperiment(b, experiments.E7Cmmp) }
func BenchmarkE8Cmstar(b *testing.B)           { runExperiment(b, experiments.E8Cmstar) }
func BenchmarkE9FetchAndAdd(b *testing.B)      { runExperiment(b, experiments.E9FetchAndAdd) }
func BenchmarkE10Connection(b *testing.B)      { runExperiment(b, experiments.E10ConnectionMachine) }
func BenchmarkE11Emulator(b *testing.B)        { runExperiment(b, experiments.E11Emulator) }
func BenchmarkE12VLIW(b *testing.B)            { runExperiment(b, experiments.E12VLIW) }

// --- substrate micro-benchmarks ---

// BenchmarkCompiler measures MiniID compilation throughput on the paper's
// trapezoid program.
func BenchmarkCompiler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := id.Compile(workload.TrapezoidID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures reference-interpreter instruction
// throughput and allocation per run on each of the six kernel program
// shapes: loops (sumloop, trapezoid), recursion (fib), nested loops over
// I-structures (matmul, wavefront) and recursion over I-structures
// (mergesort). They differ in how many half-matched activities the
// waiting store holds at once.
func BenchmarkInterpreter(b *testing.B) {
	cases := []struct {
		name string
		src  string
		args []token.Value
	}{
		{"sumloop", workload.SumLoopID, []token.Value{token.Int(1000)}},
		{"matmul", workload.MatMulID, []token.Value{token.Int(8)}},
		{"fib", workload.FibID, []token.Value{token.Int(15)}},
		{"wavefront", workload.WavefrontID, []token.Value{token.Int(16)}},
		{"mergesort", workload.MergeSortID, []token.Value{token.Int(64)}},
		{"trapezoid", workload.TrapezoidID, []token.Value{token.Float(0), token.Float(1), token.Float(1000)}},
	}
	for _, c := range cases {
		prog, err := id.Compile(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var fired uint64
			for i := 0; i < b.N; i++ {
				it := graph.NewInterp(prog)
				if _, err := it.Run(c.args...); err != nil {
					b.Fatal(err)
				}
				fired = it.Fired()
			}
			b.ReportMetric(float64(fired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkDirectVsInterp runs the direct-execution oracle backend and
// the interpreted TTDA machine (8 PEs) on the same workload programs.
// Both run the program's instructions one firing at a time; direct has
// no cycle model (no engine, no network, no pipeline stages), so the
// ratio is what the cycle model costs per program shape. BENCH_PR10.json's direct rows
// predate the deletion of direct's loop accelerator (DESIGN.md §14).
func BenchmarkDirectVsInterp(b *testing.B) {
	cases := []struct {
		name string
		src  string
		arg  int64
	}{
		{"sumloop", workload.SumLoopID, 20000},
		{"matmul", workload.MatMulID, 4},
		{"fib", workload.FibID, 14},
	}
	for _, c := range cases {
		prog, err := id.Compile(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/direct", func(b *testing.B) {
			var fired uint64
			for i := 0; i < b.N; i++ {
				x := direct.New(prog)
				if _, err := x.Run(token.Int(c.arg)); err != nil {
					b.Fatal(err)
				}
				fired = x.Fired()
			}
			b.ReportMetric(float64(fired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mfirings/s")
		})
		b.Run(c.name+"/ttda", func(b *testing.B) {
			var fired uint64
			for i := 0; i < b.N; i++ {
				m := core.NewMachine(core.Config{PEs: 8}, prog)
				if _, err := m.Run(1_000_000_000, token.Int(c.arg)); err != nil {
					b.Fatal(err)
				}
				fired = m.Summarize().Fired
			}
			b.ReportMetric(float64(fired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mfirings/s")
		})
	}
}

// BenchmarkTTDAMachine measures the cycle-accurate machine's simulation
// speed (simulated cycles per wall second) on an 8-PE matmul.
func BenchmarkTTDAMachine(b *testing.B) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(core.Config{PEs: 8}, prog)
		if _, err := m.Run(1_000_000_000, token.Int(4)); err != nil {
			b.Fatal(err)
		}
		cycles = m.Summarize().Cycles
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// BenchmarkTTDAMachineScaling reports simulated run length as the machine
// grows — the experiment infrastructure's own scaling behaviour.
func BenchmarkTTDAMachineScaling(b *testing.B) {
	prog, err := id.Compile(workload.FibID)
	if err != nil {
		b.Fatal(err)
	}
	for _, pes := range []int{1, 4, 16} {
		b.Run(benchName("pes", pes), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m := core.NewMachine(core.Config{PEs: pes}, prog)
				if _, err := m.Run(1_000_000_000, token.Int(12)); err != nil {
					b.Fatal(err)
				}
				cycles = m.Summarize().Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkEmulator measures the emulation facility's instruction
// throughput (the Figure 3-1 speed argument).
func BenchmarkEmulator(b *testing.B) {
	prog, err := id.Compile(workload.FibID)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		f := emulator.New(emulator.Config{Dim: 5}, prog)
		if _, err := f.Run(token.Int(14)); err != nil {
			b.Fatal(err)
		}
		fired = f.Fired.Load()
	}
	b.ReportMetric(float64(fired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkA1Optimizer(b *testing.B)     { runExperiment(b, experiments.A1Optimizer) }
func BenchmarkA2MatchCapacity(b *testing.B) { runExperiment(b, experiments.A2MatchCapacity) }
func BenchmarkA3Bandwidth(b *testing.B)     { runExperiment(b, experiments.A3PipelineBandwidth) }
func BenchmarkA4Topology(b *testing.B)      { runExperiment(b, experiments.A4Topology) }

func BenchmarkE13Grail(b *testing.B) { runExperiment(b, experiments.E13ParallelismGrail) }

func BenchmarkA5OpTiming(b *testing.B) { runExperiment(b, experiments.A5OpTiming) }
