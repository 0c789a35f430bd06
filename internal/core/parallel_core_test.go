package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// TestShardedBitIdentical is the core-level conformance oracle for the
// conservative parallel kernel: every golden scenario must produce exactly
// the same results, cycle count, machine statistics, and per-PE statistics
// at every shard count as it does sequentially. Not "statistically
// equivalent" — bit-identical, via reflect.DeepEqual over the full golden
// snapshot.
func TestShardedBitIdentical(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seq := snapshotRun(t, sc)
			for _, shards := range []int{2, 3, 4, 8} {
				par := sc
				par.cfg = func() Config {
					c := sc.cfg()
					c.Shards = shards
					return c
				}
				got := snapshotRun(t, par)
				if !reflect.DeepEqual(seq, got) {
					t.Errorf("shards=%d diverged from sequential:\n  seq: %s\n  par: %s",
						shards, mustJSON(seq), mustJSON(got))
				}
			}
		})
	}
}

// TestShardedIndependentOfGOMAXPROCS pins the other determinism axis: the
// thread count the runtime grants must not leak into simulated state.
func TestShardedIndependentOfGOMAXPROCS(t *testing.T) {
	sc := goldenScenario{
		name: "gomaxprocs-matmul4-pe8",
		src:  workload.MatMulID,
		args: []token.Value{token.Int(4)},
		cfg:  func() Config { return Config{PEs: 8, Shards: 4} },
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var first runSnapshot
	for i, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		got := snapshotRun(t, sc)
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(first, got) {
			t.Fatalf("GOMAXPROCS=%d changed the run:\n  first: %s\n  got:   %s",
				procs, mustJSON(first), mustJSON(got))
		}
	}
}

// TestWindowedBitIdentical pins that EpochWindow is ignored: every golden
// scenario run with 2 and 4 shards and EpochWindow 4 or -1 (the values
// callers set when the field chose multi-tick epochs) must produce the
// same full snapshot as its sequential run.
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

// TestWindowedIndependentOfGOMAXPROCS pins that a sharded run that sets
// the ignored EpochWindow does not depend on the runtime's thread count
// either: GOMAXPROCS 1, 2 and 4 agree bit-for-bit.
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
			t.Fatalf("GOMAXPROCS=%d changed the run:\n  first: %s\n  got:   %s",
				procs, mustJSON(first), mustJSON(got))
		}
	}
}

// TestShardedEngineCountersPinned pins the sharded kernel's scheduling
// counters for matmul(6) on 8 PEs. They are not simulated observables;
// pinning them makes any change to the shard protocol's scheduling a
// deliberate one.
func TestShardedEngineCountersPinned(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		shards int
		want   sim.Counters
	}{
		{2, sim.Counters{StepsExecuted: 6999, CyclesSkipped: 38, WakesEnqueued: 11640}},
		{4, sim.Counters{StepsExecuted: 10763, CyclesSkipped: 38, WakesEnqueued: 11640}},
		{8, sim.Counters{StepsExecuted: 16222, CyclesSkipped: 38, WakesEnqueued: 11640}},
	} {
		m := NewMachine(Config{PEs: 8, Shards: tc.shards}, prog)
		res, err := m.Run(500_000_000, token.Int(6))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != token.Int(2486) {
			t.Fatalf("shards=%d: result %v, want [2486]", tc.shards, res)
		}
		if got := m.Engine().Counters(); got != tc.want {
			t.Errorf("shards=%d: counters %+v, want %+v", tc.shards, got, tc.want)
		}
	}
}

// TestShardedErrorsMatchSequential runs failure paths sharded: faults are
// deferred to commit (a module's single-assignment fault beside its
// shard's log, ahead of it), so every shard count must report exactly
// what the sequential machine reports and stop at the same cycle with the
// same firings. EpochWindow is ignored, so the runs that set it must stop
// there too. The double write names the cell's global address: on four
// PEs cell 5 lives on PE 1.
func TestShardedErrorsMatchSequential(t *testing.T) {
	type stop struct {
		err   string
		now   sim.Cycle
		fired uint64
	}
	run := func(cfg Config, prog *graph.Program, limit sim.Cycle, arg int64) stop {
		m := NewMachine(cfg, prog)
		_, err := m.Run(limit, token.Int(arg))
		s := stop{now: m.Now(), fired: m.Summarize().Fired}
		if err != nil {
			s.err = err.Error()
		}
		return s
	}
	for _, tc := range []struct {
		name, src string
		limit     sim.Cycle
		arg       int64
		want      string
	}{
		{"cycle limit", `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`, 5, 1000, "did not finish within 5 cycles"},
		{"double write", `def main(n) = { a = array(8); a[5] <- n; a[5] <- n + 1; a[5] };`, 100_000, 5,
			"core: store: address 5 already written (single-assignment violation)"},
		{"division by zero", `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + 100 / (i - 3) return s);`, 100_000, 5,
			"integer division by zero"},
	} {
		prog, err := id.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		seq := run(Config{PEs: 4}, prog, tc.limit, tc.arg)
		if !strings.Contains(seq.err, tc.want) {
			t.Fatalf("%s: sequential run gave %q, want %q", tc.name, seq.err, tc.want)
		}
		for _, cfg := range []Config{
			{PEs: 4, Shards: 2},
			{PEs: 4, Shards: 4},
			{PEs: 4, Shards: 2, EpochWindow: -1},
			{PEs: 4, Shards: 2, EpochWindow: 4},
		} {
			if got := run(cfg, prog, tc.limit, tc.arg); got != seq {
				t.Errorf("%s, %d shards, EpochWindow %d: got %+v, want the sequential %+v", tc.name, cfg.Shards, cfg.EpochWindow, got, seq)
			}
		}
	}
}

// TestTraceForcesSequential documents the Shards/Trace interaction: tracing
// samples mid-step state, so a traced machine must stay on the sequential
// path even when shards are requested.
func TestTraceForcesSequential(t *testing.T) {
	prog, err := id.Compile(workload.SumLoopID)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(64)
	m := NewMachine(Config{PEs: 4, Shards: 4, Trace: tr}, prog)
	if _, err := m.Run(1_000_000, token.Int(10)); err != nil {
		t.Fatal(err)
	}
	if _, par := m.Engine().(*sim.ParallelEngine); par {
		t.Fatal("traced machine must run sequentially")
	}
	if tr.Total() == 0 {
		t.Fatal("tracer saw nothing")
	}
}
