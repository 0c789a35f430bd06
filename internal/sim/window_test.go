package sim

import (
	"runtime"
	"strings"
	"testing"
)

// newWindowRing is newRing plus EnableWindows: the ring's fabric schedules
// exact delivery times at injection (send/commit compute due cycles) and
// delivers only on due ticks, so it satisfies the windowing contract with
// the transit latency as lookahead.
func newWindowRing(n, shards int, latency Cycle, budget int, cap Cycle) *ringMachine {
	m := newRing(n, shards, latency, budget)
	m.peng.EnableWindows(latency, cap)
	return m
}

// chewRing seeds tokens and per-cell local work so shards run clean
// multi-tick stretches between cross-shard sends — the shape adaptive
// windows exist for.
func chewRing(m *ringMachine) {
	for _, c := range m.cells {
		c.chew = 1 + c.id%4
	}
	m.cells[0].tokens = 2
	m.cells[len(m.cells)/2+1].tokens = 1
}

// TestWindowedRingMatchesSequential crosses shard counts, window caps, and
// GOMAXPROCS settings against the sequential reference: every simulated
// observable must be identical, and the runtime's thread count must not
// matter.
func TestWindowedRingMatchesSequential(t *testing.T) {
	const n, latency, budget = 13, 6, 40
	ref := newRing(n, 0, latency, budget)
	chewRing(ref)
	wantElapsed, ok := ref.eng.Run(ref.quiet, 100_000)
	if !ok {
		t.Fatalf("sequential reference did not quiesce (elapsed %d)", wantElapsed)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{2, 3, 4} {
			for _, cap := range []Cycle{0, 2, 3} {
				m := newWindowRing(n, shards, latency, budget, cap)
				chewRing(m)
				elapsed, ok := m.eng.Run(m.quiet, 100_000)
				if elapsed != wantElapsed || !ok {
					t.Errorf("procs=%d shards=%d cap=%d: elapsed %d ok %v, want %d true",
						procs, shards, cap, elapsed, ok, wantElapsed)
				}
				for i, c := range m.cells {
					if c.passed != ref.cells[i].passed || c.tokens+c.pending != ref.cells[i].tokens+ref.cells[i].pending {
						t.Errorf("procs=%d shards=%d cap=%d cell %d: passed/tokens %d/%d, want %d/%d",
							procs, shards, cap, i, c.passed, c.tokens+c.pending,
							ref.cells[i].passed, ref.cells[i].tokens+ref.cells[i].pending)
					}
				}
			}
		}
	}
}

// TestWindowedRingReportsStats pins that adaptive windows actually widen on
// this workload (winTicks > winEpochs would fail if the mechanism silently
// degenerated to per-tick epochs) and that a per-tick engine reports none.
func TestWindowedRingReportsStats(t *testing.T) {
	m := newWindowRing(8, 2, 6, 30, 0)
	chewRing(m)
	if _, ok := m.eng.Run(m.quiet, 100_000); !ok {
		t.Fatal("did not quiesce")
	}
	windows, cycles := m.peng.WindowStats()
	if windows == 0 {
		t.Fatal("adaptive run executed zero windows")
	}
	if cycles <= windows {
		t.Fatalf("windows never widened: %d windows covered %d cycles", windows, cycles)
	}
	perTick := newRing(8, 2, 6, 30)
	chewRing(perTick)
	if _, ok := perTick.eng.Run(perTick.quiet, 100_000); !ok {
		t.Fatal("per-tick run did not quiesce")
	}
	if w, c := perTick.peng.WindowStats(); w != 0 || c != 0 {
		t.Fatalf("per-tick engine reported window stats %d/%d", w, c)
	}
}

// TestWindowedRingSurvivesConcurrentDirtyTicks seeds several shards so
// their dirty stops land on different ticks within one window pass, which
// leaves several ticks' ops pending at once: the engine must still replay
// every deferred send in exact (tick, shard) order. The
// elapsed-cycle and passed-count comparison against sequential catches any
// reordering (a send committed early arrives early and shifts the ring's
// whole downstream timing).
func TestWindowedRingSurvivesConcurrentDirtyTicks(t *testing.T) {
	const n, latency, budget = 12, 5, 60
	seed := func(m *ringMachine) {
		for i, c := range m.cells {
			c.chew = i % 3
		}
		m.cells[1].tokens = 2
		m.cells[4].tokens = 1
		m.cells[9].tokens = 3
	}
	ref := newRing(n, 0, latency, budget)
	seed(ref)
	wantElapsed, ok := ref.eng.Run(ref.quiet, 100_000)
	if !ok {
		t.Fatal("sequential reference did not quiesce")
	}
	for _, shards := range []int{2, 4} {
		m := newWindowRing(n, shards, latency, budget, 0)
		seed(m)
		elapsed, ok := m.eng.Run(m.quiet, 100_000)
		if elapsed != wantElapsed || !ok {
			t.Errorf("shards=%d: elapsed %d ok %v, want %d true", shards, elapsed, ok, wantElapsed)
		}
		for i, c := range m.cells {
			if c.passed != ref.cells[i].passed {
				t.Errorf("shards=%d cell %d: passed %d, want %d", shards, i, c.passed, ref.cells[i].passed)
			}
		}
	}
}

func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic %v (%T); want a string mentioning %q", r, r, want)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q; want it to mention %q", msg, want)
		}
	}()
	f()
}

func TestEnableWindowsValidation(t *testing.T) {
	t.Run("before-shards", func(t *testing.T) {
		e := NewParallelEngine()
		expectPanic(t, "RegisterShard", func() { e.EnableWindows(4, 0) })
	})
	t.Run("zero-lookahead", func(t *testing.T) {
		m := newRing(4, 2, 1, 10)
		expectPanic(t, "at least 1", func() { m.peng.EnableWindows(0, 0) })
	})
	t.Run("non-window-runner", func(t *testing.T) {
		e := NewParallelEngine()
		e.RegisterShard(&inertAware{})
		expectPanic(t, "WindowRunner", func() { e.EnableWindows(4, 0) })
	})
	t.Run("cap-one-is-per-tick", func(t *testing.T) {
		m := newRing(4, 2, 2, 10)
		m.peng.EnableWindows(2, 1)
		m.cells[0].tokens = 1
		if _, ok := m.eng.Run(m.quiet, 100_000); !ok {
			t.Fatal("did not quiesce")
		}
		if w, c := m.peng.WindowStats(); w != 0 || c != 0 {
			t.Fatalf("cap=1 must stay per-tick, got window stats %d/%d", w, c)
		}
	})
}

// TestSaveStateRefusesMidWindow pins the checkpoint × windows contract:
// inside a window the shards' local clocks have diverged, so SaveState
// must refuse with a clear error rather than serialize a torn state.
func TestSaveStateRefusesMidWindow(t *testing.T) {
	m := newWindowRing(4, 2, 4, 10, 0)
	m.peng.inWindow = true
	var enc Enc
	expectPanic(t, "mid-window", func() { m.peng.SaveState(&enc) })
}
