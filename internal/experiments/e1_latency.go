package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/vn"
	"repro/internal/workload"
)

// E1LatencyTolerance reproduces the Issue 1 argument (and the machine
// model of Figure 1-1): as memory latency grows with machine size, a von
// Neumann processor that blocks on each request idles; low-level context
// switching helps only in proportion to its (fixed) context count; the
// tagged-token machine keeps issuing overlapped requests and its run time
// barely moves.
func E1LatencyTolerance(opt Options) Result {
	r := Result{
		ID:     "E1",
		Title:  "Latency tolerance: blocking vN vs multithreaded vN vs TTDA",
		Anchor: "Issue 1 (Section 1.1), Figure 1-1",
		Claim:  "each processor must issue multiple overlapped memory requests or idle as latency grows; context switching needs ever more contexts",
	}
	lats := pick(opt, []int{1, 2, 5, 10, 20, 50, 100, 200}, []int{1, 10, 50})

	var blocking, mt4, mt16, ttdaUtil, ttdaSlow metrics.Series
	blocking.Name = "vN-blocking util"
	mt4.Name = "vN-4ctx util"
	mt16.Name = "vN-16ctx util"
	ttdaUtil.Name = "TTDA ALU util"
	ttdaSlow.Name = "TTDA slowdown"

	iters := 100
	if opt.Quick {
		iters = 40
	}

	// The TTDA side runs fib(n): tree-shaped parallelism far wider than
	// the latency being hidden — the "sufficiently parallel program" the
	// paper's claim is conditioned on.
	n := int64(15)
	fibWant := int64(610)
	if opt.Quick {
		n, fibWant = 12, 144
	}
	ttda := func(latency sim.Cycle) (util float64, cycles uint64, err error) {
		prog, err := id.Compile(workload.FibID)
		if err != nil {
			return 0, 0, err
		}
		m := core.NewMachine(core.Config{PEs: 4, NetLatency: latency}, prog)
		res, err := m.Run(500_000_000, token.Int(n))
		if err != nil {
			return 0, 0, err
		}
		if res[0].I != fibWant {
			return 0, 0, fmt.Errorf("E1: TTDA computed %s, want %d", res[0], fibWant)
		}
		s := m.Summarize()
		return s.ALUUtilization, s.Cycles, nil
	}

	// One sweep point = four independent whole-machine runs; points fan
	// out across workers and reassemble in latency order.
	type row struct {
		u1, u4, u16, tu float64
		tc              uint64
	}
	rows, err := runPoints(opt, lats, func(_ PointEnv, l int) (row, error) {
		lat := sim.Cycle(l)
		var out row
		var err error
		if out.u1, err = memLoopUtil(lat, 1, iters); err != nil {
			return out, err
		}
		if out.u4, err = memLoopUtil(lat, 4, iters); err != nil {
			return out, err
		}
		if out.u16, err = memLoopUtil(lat, 16, iters); err != nil {
			return out, err
		}
		out.tu, out.tc, err = ttda(lat)
		return out, err
	})
	if err != nil {
		r.Err = err
		return r
	}
	var base uint64
	for i, l := range lats {
		if base == 0 {
			base = rows[i].tc
		}
		x := float64(l)
		blocking.Add(x, rows[i].u1)
		mt4.Add(x, rows[i].u4)
		mt16.Add(x, rows[i].u16)
		ttdaUtil.Add(x, rows[i].tu)
		ttdaSlow.Add(x, float64(rows[i].tc)/float64(base))
	}
	r.Tables = append(r.Tables, metrics.SeriesTable(
		"E1: utilization and TTDA slowdown vs memory/network latency (vN cores stream memory; TTDA runs tree-parallel fib)",
		"latency", blocking, mt4, mt16, ttdaUtil, ttdaSlow))

	lastIdx := len(blocking.Points) - 1
	r.Finding = fmt.Sprintf(
		"blocking vN falls to %.2f at latency %d while the TTDA slows only %.2fx; fixed context counts land in between",
		blocking.Points[lastIdx].Y, lats[lastIdx], ttdaSlow.Points[lastIdx].Y)
	return r
}

// memLoopUtil runs workload.MemLoopASM on one k-context vn core over
// LatencyMemory, context i loading iters words from address 1000+1000i,
// and returns the core's utilization. E1 and E2 both measure with it.
func memLoopUtil(latency sim.Cycle, k, iters int) (float64, error) {
	// Assembled fresh per call: sweep points run concurrently and share
	// nothing.
	prog, err := vn.Assemble(workload.MemLoopASM)
	if err != nil {
		return 0, err
	}
	mem := vn.NewLatencyMemory(latency)
	c := vn.NewCore(prog, mem, k)
	for i := 0; i < k; i++ {
		c.Context(i).SetReg(1, vn.Word(1000+1000*i))
		c.Context(i).SetReg(4, vn.Word(iters))
	}
	eng := sim.NewEngine()
	eng.Register(mem)
	eng.Register(c)
	const limit = 20_000_000
	if _, ok := eng.Run(c.Halted, limit); !ok {
		return 0, fmt.Errorf("vN run did not halt within %d cycles", limit)
	}
	return c.Stats().Utilization(), nil
}
