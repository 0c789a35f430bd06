package cmstar

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vn"
)

// sumLoop reads r2 words starting at r1 and accumulates into r3.
const sumLoop = `
loop:   beq  r2, r0, done
        ld   r4, r1, 0
        add  r3, r3, r4
        addi r1, r1, 1
        addi r2, r2, -1
        j    loop
done:   halt
`

func assemble(t *testing.T, src string) *vn.Program {
	t.Helper()
	p, err := vn.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocalVsRemoteLatency(t *testing.T) {
	cfg := Config{Clusters: 4, CoresPerCluster: 1, ClusterWords: 1024}
	prog := assemble(t, sumLoop)

	runWithBase := func(base uint32) (sim.Cycle, *Machine) {
		m := New(cfg, prog)
		for a := uint32(0); a < 4*1024; a++ {
			m.Poke(a, 1)
		}
		// only cluster 0's core does work; others halt immediately
		for i := 1; i < m.NumCores(); i++ {
			m.CoreAt(i).Context(0).SetPC(len(prog.Instrs) - 1) // the halt
		}
		m.Core(0, 0).Context(0).SetReg(1, vn.Word(base))
		m.Core(0, 0).Context(0).SetReg(2, 50)
		cycles, err := m.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Core(0, 0).Context(0).Reg(3); got != 50 {
			t.Fatalf("sum = %d, want 50", got)
		}
		return cycles, m
	}

	localCycles, lm := runWithBase(0)    // cluster 0's own memory
	remote1, _ := runWithBase(1024)      // neighbouring cluster
	remote3, rm := runWithBase(3 * 1024) // three hops away
	if !(localCycles < remote1 && remote1 < remote3) {
		t.Fatalf("latency must grow with distance: local=%d 1-hop=%d 3-hop=%d",
			localCycles, remote1, remote3)
	}
	if lm.Stats().RemoteRefs.Value() != 0 {
		t.Fatal("local run made remote references")
	}
	if rm.Stats().RemoteRefs.Value() != 50 {
		t.Fatalf("remote refs = %d, want 50", rm.Stats().RemoteRefs.Value())
	}
}

func TestUtilizationFallsWithRemoteFraction(t *testing.T) {
	// The Cm* lesson: processor utilization collapses as the share of
	// non-local references rises, because the LSI-11 blocks.
	cfg := Config{Clusters: 2, CoresPerCluster: 1, ClusterWords: 1024}
	prog := assemble(t, sumLoop)
	utilFor := func(base uint32) float64 {
		m := New(cfg, prog)
		for a := uint32(0); a < 2048; a++ {
			m.Poke(a, 1)
		}
		m.CoreAt(1).Context(0).SetPC(len(prog.Instrs) - 1)
		m.Core(0, 0).Context(0).SetReg(1, vn.Word(base))
		m.Core(0, 0).Context(0).SetReg(2, 100)
		if _, err := m.Run(1_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Core(0, 0).Stats().Utilization()
	}
	local, remote := utilFor(0), utilFor(1024)
	if remote >= local {
		t.Fatalf("remote references must reduce utilization: local=%v remote=%v", local, remote)
	}
	if remote > 0.5*local {
		t.Fatalf("blocking remote references should at least halve utilization: local=%v remote=%v", local, remote)
	}
}

func TestRelaxationSpeedupPlateaus(t *testing.T) {
	// Chaotic relaxation across clusters: each core sweeps its own chunk
	// but reads boundary values from neighbours. Speedup grows, then
	// flattens as remote traffic and Kmap serialization dominate —
	// Deminet's upper limit on cooperating processors.
	relax := `
        ; r1 = chunk base, r2 = cells, r6 = sweeps
sweep:  beq  r6, r0, done
        add  r7, r1, r0
        add  r8, r2, r0
cell:   beq  r8, r0, endsweep
        ld   r3, r7, -1
        ld   r4, r7, 1
        add  r5, r3, r4
        li   r9, 2
        div  r5, r5, r9
        st   r5, r7, 0
        addi r7, r7, 1
        addi r8, r8, -1
        j    cell
endsweep: addi r6, r6, -1
        j    sweep
done:   halt
`
	prog := assemble(t, relax)
	const totalCells = 96
	const sweeps = 4
	timeFor := func(clusters, coresPer int) sim.Cycle {
		cfg := Config{Clusters: clusters, CoresPerCluster: coresPer, ClusterWords: 4096}
		m := New(cfg, prog)
		p := clusters * coresPer
		chunk := totalCells / p
		// lay the cells out contiguously across clusters: cell i at
		// global address (i/perCluster)*4096 + offset... keep it simple:
		// all data in cluster-local slabs with core i's chunk in its own
		// cluster; boundary reads cross slabs only at cluster edges.
		perCluster := chunk * coresPer
		addrOf := func(i int) uint32 {
			c := i / perCluster
			return uint32(c*4096 + 1 + i%perCluster)
		}
		for i := -1; i <= totalCells; i++ {
			var a uint32
			switch {
			case i < 0:
				a = 0
			case i >= totalCells:
				a = addrOf(totalCells-1) + 1
			default:
				a = addrOf(i)
			}
			m.Poke(a, vn.Word(i))
		}
		for q := 0; q < p; q++ {
			h := m.CoreAt(q).Context(0)
			h.SetReg(1, vn.Word(addrOf(q*chunk)))
			h.SetReg(2, vn.Word(chunk))
			h.SetReg(6, sweeps)
		}
		cycles, err := m.Run(20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	t1 := timeFor(1, 1)
	t4 := timeFor(1, 4) // one cluster, four cores: bus shared, no remote
	t8 := timeFor(4, 2) // spread across clusters: remote boundary refs
	if t4 >= t1 {
		t.Fatalf("4 cores in one cluster must beat 1 core: t1=%d t4=%d", t1, t4)
	}
	s4 := float64(t1) / float64(t4)
	s8 := float64(t1) / float64(t8)
	if s8 > 2.5*s4 {
		t.Fatalf("speedup should plateau, not scale: s4=%.2f s8=%.2f", s4, s8)
	}
}

func TestKmapSerializesRemoteTraffic(t *testing.T) {
	// Two cores in cluster 0 hammering cluster 1 share one Kmap; their
	// remote references serialize at it.
	cfg := Config{Clusters: 2, CoresPerCluster: 2, ClusterWords: 1024}
	prog := assemble(t, sumLoop)
	m := New(cfg, prog)
	for a := uint32(1024); a < 2048; a++ {
		m.Poke(a, 1)
	}
	for q := 0; q < 2; q++ {
		h := m.Core(0, q).Context(0)
		h.SetReg(1, vn.Word(1024+512*q))
		h.SetReg(2, 20)
	}
	m.Core(1, 0).Context(0).SetPC(len(prog.Instrs) - 1)
	m.Core(1, 1).Context(0).SetPC(len(prog.Instrs) - 1)
	cycles, err := m.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// 40 remote refs through one Kmap: at least 40 × kmapService cycles.
	if cycles < 40*kmapService {
		t.Fatalf("Kmap serialization not visible: %d cycles for 40 refs", cycles)
	}
	if m.Stats().RemoteLatency.Count() != 40 {
		t.Fatalf("remote latency observations = %d, want 40", m.Stats().RemoteLatency.Count())
	}
}
