package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/token"
	"repro/internal/workload"
)

// E11Emulator reproduces the Figure 3-1 development plan: the same
// compiled graphs run on the detailed simulator (timing-accurate, slow)
// and on the hypercube emulation facility (no internal timings, fast),
// which additionally demonstrates table-routed fault tolerance and static
// partitioning.
func E11Emulator(opt Options) Result {
	r := Result{
		ID:     "E11",
		Title:  "Figure 3-1: detailed simulation vs emulation facility",
		Anchor: "Section 3, Figure 3-1",
		Claim:  "the emulator trades internal timing fidelity for the speed to run large programs; the hypercube's redundancy gives fault tolerance and partitioning",
	}
	fibN := int64(16)
	if opt.Quick {
		fibN = 12
	}
	prog, err := id.Compile(workload.FibID)
	if err != nil {
		r.Err = err
		return r
	}

	// Detailed simulator.
	start := time.Now()
	m := core.NewMachine(core.Config{PEs: 32}, prog)
	mres, err := m.Run(1_000_000_000, token.Int(fibN))
	if err != nil {
		r.Err = err
		return r
	}
	simWall := time.Since(start)
	simSummary := m.Summarize()

	// Emulation facility (32 nodes = the paper's lower bound).
	start = time.Now()
	f := emulator.New(emulator.Config{Dim: 5}, prog)
	fres, err := f.Run(token.Int(fibN))
	if err != nil {
		r.Err = err
		return r
	}
	emuWall := time.Since(start)
	if !mres[0].Equal(fres[0]) {
		r.Err = fmt.Errorf("E11: substrates disagree: %s vs %s", mres[0], fres[0])
		return r
	}

	tb := metrics.NewTable(fmt.Sprintf("E11: fib(%d) on both prongs of the development plan (32 PEs each)", fibN),
		"substrate", "result", "instructions", "simulated cycles", "wall time", "instr/wall-ms")
	tb.AddRow("detailed simulator", mres[0].String(), simSummary.Fired, simSummary.Cycles,
		simWall.Round(time.Microsecond).String(),
		float64(simSummary.Fired)/fmax(1e-3, float64(simWall)/float64(time.Millisecond)))
	tb.AddRow("emulation facility", fres[0].String(), f.Fired.Load(), "n/a",
		emuWall.Round(time.Microsecond).String(),
		float64(f.Fired.Load())/fmax(1e-3, float64(emuWall)/float64(time.Millisecond)))
	r.Tables = append(r.Tables, tb)

	// Fault tolerance: kill links, verify the answer and the re-routing
	// cost, the hops taken beyond each message's shortest route.
	intact := emulator.New(emulator.Config{Dim: 5}, prog)
	ires, err := intact.Run(token.Int(fibN))
	if err != nil {
		r.Err = err
		return r
	}
	wounded := emulator.New(emulator.Config{Dim: 5}, prog)
	wounded.KillLink(0, 0)
	wounded.KillLink(7, 2)
	wounded.KillLink(19, 4)
	wres, err := wounded.Run(token.Int(fibN))
	if err != nil {
		r.Err = fmt.Errorf("E11 faults: %w", err)
		return r
	}
	if !wres[0].Equal(ires[0]) {
		r.Err = fmt.Errorf("E11: faulted run changed the answer")
		return r
	}
	ft := metrics.NewTable("E11: link-fault tolerance via table re-routing (3 links dead)",
		"configuration", "result", "messages", "hops", "detour hops")
	ft.AddRow("intact cube", ires[0].String(), intact.Messages.Load(), intact.Hops.Load(), intact.Detour())
	ft.AddRow("3 dead links", wres[0].String(), wounded.Messages.Load(), wounded.Hops.Load(), wounded.Detour())
	r.Tables = append(r.Tables, ft)

	// Partitioning: two independent sub-machines of one facility.
	sumProg, err := id.Compile(workload.SumLoopID)
	if err != nil {
		r.Err = err
		return r
	}
	part := make([]int, 32)
	for i := range part {
		part[i] = i >> 4
	}
	pf := emulator.New(emulator.Config{Dim: 5}, sumProg)
	pf.Partition(part)
	p0, err := pf.RunPartition(0, token.Int(100))
	if err != nil {
		r.Err = err
		return r
	}
	pf2 := emulator.New(emulator.Config{Dim: 5}, sumProg)
	pf2.Partition(part)
	p1, err := pf2.RunPartition(1, token.Int(200))
	if err != nil {
		r.Err = err
		return r
	}
	pt := metrics.NewTable("E11: static partitioning into two 16-node machines",
		"partition", "program", "result")
	pt.AddRow(0, "sum(100)", p0[0].String())
	pt.AddRow(1, "sum(200)", p1[0].String())
	r.Tables = append(r.Tables, pt)

	speed := float64(f.Fired.Load()) / fmax(1e-3, float64(emuWall.Microseconds())) /
		(float64(simSummary.Fired) / fmax(1e-3, float64(simWall.Microseconds())))
	r.Finding = fmt.Sprintf(
		"both prongs agree on every answer; the emulator runs ~%.1fx the detailed simulator's instructions per wall-second (no internal timings), and survives dead links with %d detour hops",
		speed, wounded.Detour())
	return r
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
