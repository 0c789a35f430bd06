package experiments

import (
	"fmt"

	"repro/internal/machines/cmstar"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vn"
	"repro/internal/workload"
)

// E8Cmstar reproduces the Section 1.2.2 discussion: Cm*'s blocking
// non-local references cap the number of processors that can usefully
// cooperate, even on highly parallel programs like chaotic relaxation
// (Deminet's measurements).
func E8Cmstar(opt Options) Result {
	r := Result{
		ID:     "E8",
		Title:  "Cm*: blocking remote references cap speedup",
		Anchor: "Section 1.2.2",
		Claim:  "greater interprocessor distance means longer reference times and decreased utilization; processor idle time bounds cooperating processors",
	}

	// Part 1: reference latency vs cluster distance.
	lat := metrics.NewTable("E8: reference stream run time vs cluster distance (one core active)",
		"distance", "cycles", "utilization")
	const clusterWords = 4096
	dists := pick(opt, []int{0, 1, 2, 3}, []int{0, 2})
	type distRow struct {
		cycles sim.Cycle
		util   float64
	}
	distRows, err := runPoints(opt, dists, func(_ PointEnv, dist int) (distRow, error) {
		prog, err := vn.Assemble(workload.MemLoopASM)
		if err != nil {
			return distRow{}, err
		}
		m := cmstar.New(cmstar.Config{Clusters: 4, CoresPerCluster: 1, ClusterWords: clusterWords}, prog)
		for a := uint32(0); a < 4*clusterWords; a++ {
			m.Poke(a, 1)
		}
		for i := 1; i < m.NumCores(); i++ {
			m.CoreAt(i).Context(0).SetPC(len(prog.Instrs) - 1)
		}
		h := m.Core(0, 0).Context(0)
		h.SetReg(1, vn.Word(dist*clusterWords))
		h.SetReg(4, 50)
		cycles, err := m.Run(10_000_000)
		if err != nil {
			return distRow{}, err
		}
		return distRow{cycles, m.Core(0, 0).Stats().Utilization()}, nil
	})
	if err != nil {
		r.Err = err
		return r
	}
	for i, dist := range dists {
		lat.AddRow(dist, uint64(distRows[i].cycles), distRows[i].util)
	}
	r.Tables = append(r.Tables, lat)

	// Part 2: chaotic relaxation speedup across machine configurations.
	totalCells := 192
	sweeps := int64(4)
	if opt.Quick {
		totalCells = 96
	}
	// Two data layouts: "blocked" gives each core's chunk a home in its own
	// cluster (the locality Cm* hoped for); "interleaved" scatters cells
	// round-robin across clusters (the locality-free case in which, as the
	// paper notes, "the hope manifested itself in the communication
	// strategy" and then failed: most references become remote and
	// blocking processors idle).
	timeFor := func(clusters, coresPer int, interleaved bool) (sim.Cycle, float64, float64, error) {
		relax, err := vn.Assemble(workload.RelaxASM)
		if err != nil {
			return 0, 0, 0, err
		}
		m := cmstar.New(cmstar.Config{Clusters: clusters, CoresPerCluster: coresPer, ClusterWords: clusterWords}, relax)
		p := clusters * coresPer
		chunk := totalCells / p
		perCluster := chunk * coresPer
		addrOf := func(i int) uint32 {
			if interleaved {
				return uint32((i%clusters)*clusterWords + 1 + i/clusters)
			}
			return uint32((i/perCluster)*clusterWords + 1 + i%perCluster)
		}
		for i := -1; i <= totalCells; i++ {
			switch {
			case i < 0:
				m.Poke(0, 0)
			case i >= totalCells:
				m.Poke(addrOf(totalCells-1)+1, vn.Word(i))
			default:
				m.Poke(addrOf(i), vn.Word(i))
			}
		}
		// The kernel sweeps a contiguous address range, so under the
		// interleaved layout each core sweeps an in-cluster slice whose
		// neighbour reads land in other clusters only implicitly via the
		// blocked kernel; to keep the kernel identical we give each core a
		// contiguous address range in *some* cluster and let the layout
		// decide how many of its reads are remote.
		for q := 0; q < p; q++ {
			h := m.CoreAt(q).Context(0)
			h.SetReg(1, vn.Word(addrOf(q*chunk)))
			h.SetReg(2, vn.Word(chunk))
			h.SetReg(6, sweeps)
		}
		cycles, err := m.Run(500_000_000)
		total := float64(m.Stats().LocalRefs.Value() + m.Stats().RemoteRefs.Value())
		remoteFrac := 0.0
		if total > 0 {
			remoteFrac = float64(m.Stats().RemoteRefs.Value()) / total
		}
		return cycles, m.MeanUtilization(), remoteFrac, err
	}

	type cfg struct {
		clusters, cores int
	}
	cfgs := []cfg{{1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 4}}
	if opt.Quick {
		cfgs = []cfg{{1, 1}, {1, 4}, {4, 2}, {8, 4}}
	}
	tb := metrics.NewTable("E8: chaotic relaxation speedup on Cm*: blocked (local) vs interleaved (remote) data",
		"clusters x cores", "procs", "speedup local", "speedup remote", "remote ref frac", "util remote")
	type cfgRow struct {
		cb, ci       sim.Cycle
		utilI, fracI float64
	}
	cfgRows, err := runPoints(opt, cfgs, func(_ PointEnv, c cfg) (cfgRow, error) {
		cb, _, _, err := timeFor(c.clusters, c.cores, false)
		if err != nil {
			return cfgRow{}, err
		}
		ci, utilI, fracI, err := timeFor(c.clusters, c.cores, true)
		return cfgRow{cb, ci, utilI, fracI}, err
	})
	if err != nil {
		r.Err = err
		return r
	}
	// Speedup baselines come from the first configuration, resolved after
	// the parallel sweep so the table is schedule-independent.
	var t1b, t1i sim.Cycle
	var lastB, lastI float64
	for i, c := range cfgs {
		row := cfgRows[i]
		if t1b == 0 {
			t1b, t1i = row.cb, row.ci
		}
		lastB = float64(t1b) / float64(row.cb)
		lastI = float64(t1i) / float64(row.ci)
		tb.AddRow(fmt.Sprintf("%dx%d", c.clusters, c.cores), c.clusters*c.cores,
			lastB, lastI, row.fracI, row.utilI)
	}
	r.Tables = append(r.Tables, tb)
	r.Finding = fmt.Sprintf(
		"with cluster-local data the machine scales (%.1fx at 32), but without locality remote blocking references cap speedup at %.1fx — Deminet's ceiling, the paper's Issue 1 in the flesh",
		lastB, lastI)
	return r
}
