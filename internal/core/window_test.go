package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/id"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestWindowedBitIdentical crosses multi-tick epoch windows into the
// core-level parallel oracle: every golden scenario must produce exactly
// the same full snapshot — results, cycle count, machine statistics,
// per-PE statistics — at every (shards, window) point as it does
// sequentially. Window 1 is the per-tick baseline TestShardedBitIdentical
// covers; 4 exercises capped windows and -1 fully adaptive ones.
func TestWindowedBitIdentical(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seq := snapshotRun(t, sc)
			for _, shards := range []int{2, 4} {
				for _, window := range []int{4, -1} {
					par := sc
					par.cfg = func() Config {
						c := sc.cfg()
						c.Shards = shards
						c.EpochWindow = window
						return c
					}
					got := snapshotRun(t, par)
					if !reflect.DeepEqual(seq, got) {
						t.Errorf("shards=%d window=%d diverged from sequential:\n  seq: %s\n  par: %s",
							shards, window, mustJSON(seq), mustJSON(got))
					}
				}
			}
		})
	}
}

// TestWindowedIndependentOfGOMAXPROCS pins that the thread count the
// runtime grants does not leak into a windowed run: GOMAXPROCS 1, 2 and 4
// agree bit-for-bit.
func TestWindowedIndependentOfGOMAXPROCS(t *testing.T) {
	sc := goldenScenario{
		name: "gomaxprocs-window-matmul4-pe8",
		src:  workload.MatMulID,
		args: []token.Value{token.Int(4)},
		cfg:  func() Config { return Config{PEs: 8, Shards: 4, EpochWindow: -1} },
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first runSnapshot
	for i, procs := range []int{1, 2, 4, prev} {
		runtime.GOMAXPROCS(procs)
		got := snapshotRun(t, sc)
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("GOMAXPROCS=%d changed the windowed run:\n  first: %s\n  got:   %s",
				procs, mustJSON(first), mustJSON(got))
		}
	}
}

// TestWindowsActuallyEngage guards against the whole mechanism silently
// regressing to per-tick epochs: on a windowable fabric with sparse
// cross-shard traffic, an adaptive run must report a nonzero window count
// covering more cycles than windows (i.e. some window was wider than one
// tick).
func TestWindowsActuallyEngage(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 8, Shards: 2, NetLatency: 8, EpochWindow: -1}, prog)
	if _, err := m.Run(500_000_000, token.Int(4)); err != nil {
		t.Fatal(err)
	}
	windows, cycles := m.WindowStats()
	if windows == 0 {
		t.Fatal("adaptive run executed zero multi-tick windows")
	}
	if cycles <= windows {
		t.Fatalf("windows never widened: %d windows covered %d cycles", windows, cycles)
	}
	// A per-tick config must report none.
	seq := NewMachine(Config{PEs: 8, Shards: 2, NetLatency: 8}, prog)
	if _, err := seq.Run(500_000_000, token.Int(4)); err != nil {
		t.Fatal(err)
	}
	if w, c := seq.WindowStats(); w != 0 || c != 0 {
		t.Fatalf("per-tick run reported window stats %d/%d", w, c)
	}
}
