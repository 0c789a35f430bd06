package connection

import (
	"testing"

	"repro/internal/sim"
)

// buildRing returns edges forming a ring over n nodes.
func ringEdges(n int) [][]int {
	edges := make([][]int, n)
	for i := 0; i < n; i++ {
		edges[i] = []int{(i + 1) % n, (i + n - 1) % n}
	}
	return edges
}

// labelPropagation runs min-label propagation over the given edges until
// stable: the connected-components workload of applied-AI graph programs
// the paper describes. mem[0] holds the label.
func labelPropagation(t *testing.T, m *Machine, edges [][]int, maxRounds int) int {
	t.Helper()
	initLabels(m)
	return propagateUntilStable(t, m, edges, maxRounds)
}

// initLabels gives every cell its own id as its label.
func initLabels(m *Machine) {
	for pe := 0; pe < m.NumPEs(); pe++ {
		m.Mem(pe)[0] = int64(pe)
	}
}

// propagateUntilStable runs propagation rounds from the labels the array
// holds and returns how many rounds it took to change nothing.
func propagateUntilStable(t *testing.T, m *Machine, edges [][]int, maxRounds int) int {
	t.Helper()
	for round := 0; round < maxRounds; round++ {
		if !propagationRound(m, edges) {
			return round + 1
		}
	}
	t.Fatal("label propagation did not converge")
	return maxRounds
}

// propagationRound routes every label to its neighbours, keeps the
// minimum, and reports whether any label changed.
func propagationRound(m *Machine, edges [][]int) bool {
	n := m.NumPEs()
	var msgs []Message
	for pe := 0; pe < n; pe++ {
		for _, to := range edges[pe] {
			msgs = append(msgs, Message{From: pe, To: to, Value: m.Mem(pe)[0]})
		}
	}
	changedAny := false
	m.Route(msgs, func(to int, v int64) {
		if v < m.Mem(to)[1] {
			m.Mem(to)[1] = v // mem[1]: min incoming label this round
		}
	})
	m.Compute(func(pe int, mem []int64) {
		if mem[1] < mem[0] {
			mem[0] = mem[1]
			changedAny = true
		}
		mem[1] = int64(n) // reset for next round
	})
	return changedAny
}

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m := New(cfg, 4)
	n := m.NumPEs()
	for pe := 0; pe < n; pe++ {
		m.Mem(pe)[1] = int64(n)
	}
	return m
}

func TestRoutingDeliversAll(t *testing.T) {
	m := newTestMachine(t, Config{LogPEs: 6})
	got := map[int]int64{}
	var msgs []Message
	for pe := 0; pe < m.NumPEs(); pe++ {
		msgs = append(msgs, Message{From: pe, To: (pe + 13) % m.NumPEs(), Value: int64(pe)})
	}
	m.Route(msgs, func(to int, v int64) { got[to] = v })
	if len(got) != m.NumPEs() {
		t.Fatalf("delivered to %d of %d", len(got), m.NumPEs())
	}
	if m.Routed.Value() != uint64(m.NumPEs()) {
		t.Fatalf("routed = %d", m.Routed.Value())
	}
}

func TestGlobalFlagSemantics(t *testing.T) {
	// Route must not return until the network is fully drained.
	m := newTestMachine(t, Config{LogPEs: 4})
	var msgs []Message
	for pe := 0; pe < 16; pe++ {
		msgs = append(msgs, Message{From: pe, To: 15 - pe, Value: 1})
	}
	m.Route(msgs, func(int, int64) {})
	if m.Network().Pending() != 0 {
		t.Fatal("route returned with packets still in flight")
	}
}

func TestCommunicationDominatesCompute(t *testing.T) {
	// The paper's claim: on graph-exploration workloads a processor "will
	// spend almost all (90%?, 99%?) of its time communicating". Use a
	// scattered random graph, the shape of the applied-AI programs the
	// proposal targets.
	m := newTestMachine(t, Config{LogPEs: 10})
	n := m.NumPEs()
	rng := sim.NewRNG(5)
	edges := make([][]int, n)
	for i := 0; i < n; i++ {
		// ring backbone keeps it connected; three scattered extra edges
		edges[i] = []int{(i + 1) % n, rng.Intn(n), rng.Intn(n), rng.Intn(n)}
	}
	labelPropagation(t, m, edges, 1000)
	if f := m.CommFraction(); f < 0.7 {
		t.Fatalf("communication fraction = %v, expected it to dominate", f)
	}
}

func TestHypercubeBeatsGridOnScatteredTraffic(t *testing.T) {
	// Random-distance traffic: the 2-D grid pays O(sqrt n) hops, the
	// hypercube O(log n).
	traffic := func(m *Machine) sim.Cycle {
		var msgs []Message
		n := m.NumPEs()
		rng := sim.NewRNG(99)
		for pe := 0; pe < n; pe++ {
			msgs = append(msgs, Message{From: pe, To: rng.Intn(n), Value: 1})
		}
		return m.Route(msgs, func(int, int64) {})
	}
	cube := newTestMachine(t, Config{LogPEs: 8, Router: RouterHypercube})
	grid := newTestMachine(t, Config{LogPEs: 8, Router: RouterGrid})
	ch := traffic(cube)
	gh := traffic(grid)
	if ch >= gh {
		t.Fatalf("hypercube (%d cycles) should beat grid (%d cycles) on scattered traffic", ch, gh)
	}
}

func TestLabelPropagationFindsComponents(t *testing.T) {
	// Two separate rings: labels converge to each ring's minimum id.
	m := newTestMachine(t, Config{LogPEs: 4})
	n := m.NumPEs()
	edges := make([][]int, n)
	half := n / 2
	for i := 0; i < half; i++ {
		edges[i] = []int{(i + 1) % half, (i + half - 1) % half}
	}
	for i := half; i < n; i++ {
		edges[i] = []int{half + (i-half+1)%half, half + (i-half+half-1)%half}
	}
	labelPropagation(t, m, edges, 1000)
	for pe := 0; pe < half; pe++ {
		if m.Mem(pe)[0] != 0 {
			t.Fatalf("pe %d label %d, want 0", pe, m.Mem(pe)[0])
		}
	}
	for pe := half; pe < n; pe++ {
		if m.Mem(pe)[0] != int64(half) {
			t.Fatalf("pe %d label %d, want %d", pe, m.Mem(pe)[0], half)
		}
	}
}

func TestBitSerialComputeCost(t *testing.T) {
	m := newTestMachine(t, Config{LogPEs: 4})
	m.Compute(func(int, []int64) {})
	if m.ComputeCycles.Value() != 16 {
		t.Fatalf("16-bit op on 1-bit ALU must cost 16 cycles, got %d", m.ComputeCycles.Value())
	}
}
