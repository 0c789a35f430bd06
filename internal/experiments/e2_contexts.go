package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// E2ContextCounts quantifies Section 1.1's context-switching argument:
// replicating processor state hides latency, but the number of contexts
// needed grows with the latency — so a scalable machine needs an unbounded
// number of them, which fixed hardware cannot provide.
func E2ContextCounts(opt Options) Result {
	r := Result{
		ID:     "E2",
		Title:  "Hardware contexts needed to hide a given memory latency",
		Anchor: "Section 1.1, Issue 1 (microcode-level context switching)",
		Claim:  "as memory elements are added, network depth grows, and the number of low-level contexts must grow to match",
	}
	ks := pick(opt, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 4, 16})
	lats := pick(opt, []int{10, 50, 200}, []int{10, 100})
	iters := 60
	if opt.Quick {
		iters = 30
	}

	// Flatten the latency x context grid into independent sweep points,
	// then scan the results in grid order so the "first k reaching 60%"
	// answer is schedule-independent.
	type point struct{ l, k int }
	var grid []point
	for _, l := range lats {
		for _, k := range ks {
			grid = append(grid, point{l, k})
		}
	}
	utils, err := runPoints(opt, grid, func(_ PointEnv, p point) (float64, error) {
		return memLoopUtil(sim.Cycle(p.l), p.k, iters)
	})
	if err != nil {
		r.Err = err
		return r
	}
	series := make([]metrics.Series, len(lats))
	needed := map[int]int{} // latency -> min k reaching 60% utilization
	for li, l := range lats {
		series[li].Name = fmt.Sprintf("util @L=%d", l)
		for ki, k := range ks {
			u := utils[li*len(ks)+ki]
			series[li].Add(float64(k), u)
			if u >= 0.6 {
				if _, ok := needed[l]; !ok {
					needed[l] = k
				}
			}
		}
	}
	r.Tables = append(r.Tables, metrics.SeriesTable(
		"E2: utilization vs hardware context count k, per memory latency",
		"contexts", series...))

	need := metrics.NewTable("E2: contexts needed for 60% utilization", "latency", "contexts")
	for _, l := range lats {
		k, ok := needed[l]
		cell := "not reached"
		if ok {
			cell = fmt.Sprintf("%d", k)
		}
		need.AddRow(l, cell)
	}
	r.Tables = append(r.Tables, need)
	r.Finding = "the context count needed for fixed utilization grows roughly linearly with latency: no fixed k suffices for a scalable machine"
	return r
}
