package connection

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/simtest"
)

type connSnapshot struct {
	ComputeCycles  uint64  `json:"compute_cycles"`
	RouteCycles    uint64  `json:"route_cycles"`
	Routed         uint64  `json:"routed"`
	CommFraction   float64 `json:"comm_fraction"`
	RouteStepsMean float64 `json:"route_steps_mean"`
	RouteStepsMax  uint64  `json:"route_steps_max"`
	LabelChecksum  int64   `json:"label_checksum"`
	Rounds         int     `json:"rounds"`
}

func snapshotConn(m *Machine, rounds int) connSnapshot {
	s := connSnapshot{
		ComputeCycles:  m.ComputeCycles.Value(),
		RouteCycles:    m.RouteCycles.Value(),
		Routed:         m.Routed.Value(),
		CommFraction:   m.CommFraction(),
		RouteStepsMean: m.RouteSteps.Mean(),
		RouteStepsMax:  m.RouteSteps.Max(),
		Rounds:         rounds,
	}
	for pe := 0; pe < m.NumPEs(); pe++ {
		s.LabelChecksum += m.Mem(pe)[0] * int64(pe+1)
	}
	return s
}

// TestGoldenLabelPropagation pins the ring-graph label-propagation workload
// on both router fabrics: the sequencer's compute/route cycle split is the
// paper's own figure of merit.
func TestGoldenLabelPropagation(t *testing.T) {
	t.Run("hypercube", func(t *testing.T) {
		m := newTestMachine(t, Config{LogPEs: 6, Router: RouterHypercube})
		rounds := labelPropagation(t, m, ringEdges(m.NumPEs()), 1000)
		simtest.Check(t, "testdata/golden_hypercube.json", snapshotConn(m, rounds))
	})
	t.Run("grid", func(t *testing.T) {
		m := newTestMachine(t, Config{LogPEs: 6, Router: RouterGrid})
		rounds := labelPropagation(t, m, ringEdges(m.NumPEs()), 1000)
		simtest.Check(t, "testdata/golden_grid.json", snapshotConn(m, rounds))
	})
}

// TestCheckpointGridRouter splits the grid router's label propagation at a
// round boundary, the machine's checkpoint point, and restores the bytes
// into a fresh machine that finishes the run. The split run must match
// the straight run's golden snapshot, and its end-of-run checkpoint — the
// torus's round-robin pointers and traffic statistics included — must
// equal the straight run's byte for byte.
func TestCheckpointGridRouter(t *testing.T) {
	cfg := Config{LogPEs: 6, Router: RouterGrid}
	straight := newTestMachine(t, cfg)
	edges := ringEdges(straight.NumPEs())
	want := snapshotConn(straight, labelPropagation(t, straight, edges, 1000))

	m := newTestMachine(t, cfg)
	initLabels(m)
	const split = 10
	for r := 0; r < split; r++ {
		if !propagationRound(m, edges) {
			t.Fatalf("converged after %d rounds, before the split", r+1)
		}
	}
	fresh := newTestMachine(t, cfg)
	if err := sim.Restore(fresh, sim.Checkpoint(m)); err != nil {
		t.Fatalf("restore after round %d: %v", split, err)
	}
	rest := propagateUntilStable(t, fresh, edges, 1000)
	if got := snapshotConn(fresh, split+rest); got != want {
		t.Errorf("run split after round %d diverged:\n  straight %+v\n  split    %+v", split, want, got)
	}
	if !bytes.Equal(sim.Checkpoint(fresh), sim.Checkpoint(straight)) {
		t.Errorf("end-of-run checkpoint differs after a split at round %d", split)
	}
}
