package experiments

import (
	"fmt"

	"repro/internal/machines/cmmp"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/vn"
	"repro/internal/workload"
)

// E7Cmmp reproduces the Section 1.2.1 discussion: the crossbar's cost
// grows at least quadratically while a lock-protected shared counter shows
// the "rather high" cost of semaphore synchronization relative to an ALU
// operation, and no speedup from added processors.
func E7Cmmp(opt Options) Result {
	r := Result{
		ID:     "E7",
		Title:  "C.mmp: crossbar economics and semaphore cost",
		Anchor: "Section 1.2.1",
		Claim:  "the crossbar circumvents latency but its cost grows at least quadratically; semaphore cost >> ALU op and locks serialize",
	}
	ps := pick(opt, []int{2, 4, 8, 16, 32, 64}, []int{2, 8, 32})

	cost := metrics.NewTable("E7: crossbar crosspoint cost vs machine size (banks = processors)",
		"processors", "ports", "crosspoints", "crosspoints/processor")
	for _, p := range ps {
		ports := 2 * p
		cost.AddRow(p, ports, network.CrossbarCost(ports), network.CrossbarCost(ports)/p)
	}
	r.Tables = append(r.Tables, cost)

	iters := int64(20)
	if opt.Quick {
		iters = 8
	}
	runCounter := func(p int) (cyclesPerIncrement float64, err error) {
		prog, err := vn.Assemble(workload.CounterLockASM)
		if err != nil {
			return 0, err
		}
		m := cmmp.New(cmmp.Config{Processors: p, Banks: p}, prog, 1)
		for q := 0; q < p; q++ {
			m.Core(q).Context(0).SetReg(5, iters)
		}
		cycles, err := m.Run(50_000_000)
		if err != nil {
			return 0, err
		}
		if got := m.Peek(1); got != iters*int64(p) {
			return 0, fmt.Errorf("E7: counter = %d, want %d", got, iters*int64(p))
		}
		return float64(cycles) / float64(iters*int64(p)), nil
	}
	runALU := func(p int) (cyclesPerIteration float64, err error) {
		prog, err := vn.Assemble(`
outer:  beq  r5, r0, done
        addi r4, r4, 1
        addi r5, r5, -1
        j    outer
done:   halt
`)
		if err != nil {
			return 0, err
		}
		m := cmmp.New(cmmp.Config{Processors: p, Banks: p}, prog, 1)
		for q := 0; q < p; q++ {
			m.Core(q).Context(0).SetReg(5, iters)
		}
		cycles, err := m.Run(50_000_000)
		if err != nil {
			return 0, err
		}
		return float64(cycles) / float64(iters), nil
	}

	var lock, alu, ratio metrics.Series
	lock.Name = "cycles/locked increment"
	alu.Name = "cycles/ALU iteration"
	ratio.Name = "semaphore overhead x"
	type row struct{ lc, ac float64 }
	rows, err := runPoints(opt, ps, func(_ PointEnv, p int) (row, error) {
		lc, err := runCounter(p)
		if err != nil {
			return row{}, err
		}
		ac, err := runALU(p)
		return row{lc, ac}, err
	})
	if err != nil {
		r.Err = err
		return r
	}
	for i, p := range ps {
		lc, ac := rows[i].lc, rows[i].ac
		lock.Add(float64(p), lc)
		alu.Add(float64(p), ac)
		ratio.Add(float64(p), lc*float64(p)/ac) // wall time per increment vs local iteration
	}
	r.Tables = append(r.Tables, metrics.SeriesTable(
		"E7: shared counter under a TAS semaphore vs pure ALU loop",
		"processors", lock, alu, ratio))
	last := len(ps) - 1
	r.Finding = fmt.Sprintf(
		"crosspoints grow as n^2 (4096 at 32+32 ports); a locked increment costs %.0f cycles at %d processors — %.0fx a local ALU iteration — and throughput does not rise with processors",
		lock.Points[last].Y, ps[last], ratio.Points[last].Y)
	return r
}
