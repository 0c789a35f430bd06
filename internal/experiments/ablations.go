package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// Ablations runs the A-series: sensitivity studies of the design choices
// in the TTDA model itself, complementing the paper-claim experiments.
func Ablations(opt Options) []Result { return runList(opt, true) }

// runMat compiles-and-runs matmul(n) on a machine and returns its summary.
func runMat(cfg core.Config, prog *graph.Program, n int64) (core.Summary, error) {
	m := core.NewMachine(cfg, prog)
	res, err := m.Run(1_000_000_000, token.Int(n))
	if err != nil {
		return core.Summary{}, err
	}
	if res[0].I != workload.MatMulChecksum(int(n)) {
		return core.Summary{}, fmt.Errorf("matmul checksum mismatch: %s", res[0])
	}
	return m.Summarize(), nil
}

// A1Optimizer measures identity elision: static instruction count, dynamic
// firings, and machine cycles with the optimizer on and off.
func A1Optimizer(opt Options) Result {
	r := Result{
		ID:     "A1",
		Title:  "Ablation: graph optimizer (identity elision)",
		Anchor: "DESIGN.md §4 (compiler back end)",
		Claim:  "compiler-inserted pass-through identities cost real ALU firings and cycles; eliding them is semantics-preserving",
	}
	n := int64(6)
	if opt.Quick {
		n = 4
	}
	tb := metrics.NewTable("A1: matmul with and without the optimizer (8 PEs)",
		"configuration", "static instrs", "fired", "cycles")
	raw, err := id.CompileRaw(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	sRaw, err := runMat(core.Config{PEs: 8}, raw, n)
	if err != nil {
		r.Err = err
		return r
	}
	liveRaw := raw.NumInstructions()
	opts, err := id.Compile(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	sOpt, err := runMat(core.Config{PEs: 8}, opts, n)
	if err != nil {
		r.Err = err
		return r
	}
	liveOpt := 0
	for _, blk := range opts.Blocks {
		for s := range blk.Instrs {
			if blk.Instrs[s].Op != graph.OpNop {
				liveOpt++
			}
		}
	}
	tb.AddRow("unoptimized", liveRaw, sRaw.Fired, sRaw.Cycles)
	tb.AddRow("identity elision", liveOpt, sOpt.Fired, sOpt.Cycles)
	r.Tables = append(r.Tables, tb)
	r.Finding = fmt.Sprintf("elision removes %d static instructions, %.0f%% of dynamic firings, and %.0f%% of cycles — for free",
		liveRaw-liveOpt,
		100*(1-float64(sOpt.Fired)/float64(sRaw.Fired)),
		100*(1-float64(sOpt.Cycles)/float64(sRaw.Cycles)))
	return r
}

// A2MatchCapacity measures the associative waiting-matching store size the
// paper frets about: how small can it be before overflow penalties bite?
func A2MatchCapacity(opt Options) Result {
	r := Result{
		ID:     "A2",
		Title:  "Ablation: waiting-matching store capacity",
		Anchor: "Section 2.2.3 (the associative memory)",
		Claim:  "the matching store is the TTDA's critical resource; undersizing it costs overflow-store penalties",
	}
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	n := int64(6)
	if opt.Quick {
		n = 4
	}
	caps := pick(opt, []int{0, 128, 64, 32, 16, 8, 4}, []int{0, 16, 4})
	tb := metrics.NewTable("A2: matmul on 8 PEs vs per-PE matching-store capacity (0 = unbounded)",
		"capacity", "cycles", "overflow accesses", "slowdown")
	var base uint64
	var worst float64
	for _, c := range caps {
		m := core.NewMachine(core.Config{PEs: 8, MatchCapacity: c}, prog)
		res, err := m.Run(1_000_000_000, token.Int(n))
		if err != nil {
			r.Err = err
			return r
		}
		if res[0].I != workload.MatMulChecksum(int(n)) {
			r.Err = fmt.Errorf("A2: wrong checksum at capacity %d", c)
			return r
		}
		s := m.Summarize()
		overflows := uint64(0)
		for _, ps := range m.PEStats() {
			overflows += ps.Overflows.Value()
		}
		if base == 0 {
			base = s.Cycles
		}
		worst = float64(s.Cycles) / float64(base)
		tb.AddRow(c, s.Cycles, overflows, worst)
	}
	r.Tables = append(r.Tables, tb)
	r.Finding = fmt.Sprintf("capacities past the workload's peak occupancy are free; a %d-entry store pays %.2fx in overflow penalties",
		caps[len(caps)-1], worst)
	return r
}

// A3PipelineBandwidth varies the matching and output section bandwidths of
// Figure 2-4's pipeline.
func A3PipelineBandwidth(opt Options) Result {
	r := Result{
		ID:     "A3",
		Title:  "Ablation: PE pipeline section bandwidths",
		Anchor: "Section 2.2.3, Figure 2-4",
		Claim:  "a single-ported matching store halves the enable rate of two-operand instructions; the output section must keep pace with fan-out",
	}
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	n := int64(6)
	if opt.Quick {
		n = 4
	}
	tb := metrics.NewTable("A3: matmul cycles on 8 PEs vs section bandwidths",
		"match BW", "output BW", "cycles", "ALU util")
	type cfg struct{ mb, ob int }
	cfgs := []cfg{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {4, 4}}
	if opt.Quick {
		cfgs = []cfg{{1, 1}, {2, 2}}
	}
	for _, c := range cfgs {
		s, err := runMat(core.Config{PEs: 8, MatchBandwidth: c.mb, OutputBandwidth: c.ob}, prog, n)
		if err != nil {
			r.Err = err
			return r
		}
		tb.AddRow(c.mb, c.ob, s.Cycles, s.ALUUtilization)
	}
	r.Tables = append(r.Tables, tb)
	r.Finding = "dual-ported matching and a two-token output section keep the ALU fed; either section at bandwidth 1 becomes the pipeline bottleneck"
	return r
}

// A4Topology runs the TTDA over different interconnects at equal PE count.
func A4Topology(opt Options) Result {
	r := Result{
		ID:     "A4",
		Title:  "Ablation: TTDA interconnect topology",
		Anchor: "Figure 2-3 (the network is a pluggable element)",
		Claim:  "the architecture tolerates the latency differences between topologies; run time tracks mean packet latency, not ALU speed",
	}
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	n := int64(6)
	if opt.Quick {
		n = 4
	}
	const pes = 16
	tb := metrics.NewTable("A4: matmul on 16 PEs over different networks",
		"network", "cycles", "mean pkt latency", "delivered")
	type mk struct {
		name string
		net  func() network.Network
	}
	nets := []mk{
		{"ideal L=2", func() network.Network { return network.NewIdeal(pes, 2) }},
		{"ideal L=16", func() network.Network { return network.NewIdeal(pes, 16) }},
		{"mesh 4x4", func() network.Network { return network.NewMesh(4, 4, false, 16) }},
		{"torus 4x4", func() network.Network { return network.NewMesh(4, 4, true, 16) }},
		{"hypercube d=4", func() network.Network { return network.NewHypercube(4, 16) }},
	}
	var first uint64
	for _, mkn := range nets {
		net := mkn.net()
		m := core.NewMachine(core.Config{PEs: pes, Net: net}, prog)
		res, err := m.Run(1_000_000_000, token.Int(n))
		if err != nil {
			r.Err = fmt.Errorf("%s: %w", mkn.name, err)
			return r
		}
		if res[0].I != workload.MatMulChecksum(int(n)) {
			r.Err = fmt.Errorf("%s: wrong checksum", mkn.name)
			return r
		}
		s := m.Summarize()
		if first == 0 {
			first = s.Cycles
		}
		tb.AddRow(mkn.name, s.Cycles, net.Stats().MeanLatency(), net.Stats().Delivered.Value())
	}
	r.Tables = append(r.Tables, tb)
	r.Finding = "every topology computes the same answer; cycle counts move with packet latency and congestion, demonstrating the network-element modularity of Figure 1-1"
	return r
}

// A5OpTiming varies the ALU service-time model: the default unit-time ALU
// against a weighted profile where multiplies, divides, and square roots
// take several cycles — checking how sensitive the headline numbers are to
// the abstraction.
func A5OpTiming(opt Options) Result {
	r := Result{
		ID:     "A5",
		Title:  "Ablation: per-opcode ALU service times",
		Anchor: "Section 2.2.3 (the ALU stage)",
		Claim:  "conclusions should not hinge on the unit-time ALU idealization",
	}
	n := int64(6)
	if opt.Quick {
		n = 4
	}
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		r.Err = err
		return r
	}
	weighted := func(op graph.Opcode) sim.Cycle {
		switch op {
		case graph.OpMul:
			return 3
		case graph.OpDiv, graph.OpMod:
			return 6
		case graph.OpSqrt:
			return 8
		default:
			return 1
		}
	}
	tb := metrics.NewTable("A5: matmul on 8 PEs under ALU timing models",
		"timing model", "cycles", "ALU util", "slowdown")
	var base uint64
	for _, m := range []struct {
		name string
		f    func(graph.Opcode) sim.Cycle
	}{
		{"unit time", nil},
		{"weighted (MUL=3, DIV=6)", weighted},
	} {
		s, err := runMat(core.Config{PEs: 8, OpTime: m.f}, prog, n)
		if err != nil {
			r.Err = err
			return r
		}
		if base == 0 {
			base = s.Cycles
		}
		tb.AddRow(m.name, s.Cycles, s.ALUUtilization, float64(s.Cycles)/float64(base))
	}
	r.Tables = append(r.Tables, tb)
	// Scaling under weighted timing still works: overlap hides ALU
	// occupancy the same way it hides network latency.
	var speed metrics.Series
	speed.Name = "speedup (weighted ALU)"
	var one uint64
	for _, p := range pick(opt, []int{1, 2, 4, 8, 16}, []int{1, 8}) {
		s, err := runMat(core.Config{PEs: p, OpTime: weighted}, prog, n)
		if err != nil {
			r.Err = err
			return r
		}
		if one == 0 {
			one = s.Cycles
		}
		speed.Add(float64(p), float64(one)/float64(s.Cycles))
	}
	r.Tables = append(r.Tables, metrics.SeriesTable("A5: matmul speedup with the weighted ALU", "PEs", speed))
	r.Finding = fmt.Sprintf(
		"the weighted ALU slows the 8-PE run only %.2fx: with ALU utilization near one half, much of the extra occupancy lands in cycles the ALU would have idled anyway, and machine scaling is unchanged (%.2fx at 16 PEs)",
		func() float64 {
			if len(tb.Rows) >= 2 {
				var v float64
				fmt.Sscan(strings.TrimSuffix(tb.Rows[1][3], "x"), &v)
				return v
			}
			return 0
		}(), speed.Points[len(speed.Points)-1].Y)
	return r
}
