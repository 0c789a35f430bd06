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

// TestShardedWorkerSteps checks the per-shard accounting surface: a
// sharded run reports one counter per shard and the shards collectively
// did something; a sequential machine reports none.
func TestShardedWorkerSteps(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 8, Shards: 4}, prog)
	if _, err := m.Run(500_000_000, token.Int(4)); err != nil {
		t.Fatal(err)
	}
	steps := m.WorkerSteps()
	if len(steps) == 0 {
		t.Fatal("sharded machine reported no per-shard counters")
	}
	var total uint64
	for _, s := range steps {
		total += s
	}
	if total == 0 {
		t.Fatal("no shard ever stepped")
	}
	seq := NewMachine(Config{PEs: 8}, prog)
	if _, err := seq.Run(500_000_000, token.Int(4)); err != nil {
		t.Fatal(err)
	}
	if seq.WorkerSteps() != nil {
		t.Fatal("sequential machine should report no per-shard counters")
	}
}

// TestShardedEngineCountersPinned pins the sharded kernel's scheduling
// counters and per-shard step counts for matmul(6) on 8 PEs. They are not
// simulated observables; pinning them makes any change to the shard
// protocol's scheduling a deliberate one.
func TestShardedEngineCountersPinned(t *testing.T) {
	prog, err := id.Compile(workload.MatMulID)
	if err != nil {
		t.Fatal(err)
	}
	stepsBy := map[int][]uint64{
		2: {2411, 2396},
		4: {2115, 2190, 2154, 2112},
		8: {1478, 1722, 1675, 1972, 1889, 1832, 1877, 1585},
	}
	for _, tc := range []struct {
		shards, window int
		want           sim.Counters
	}{
		{2, 1, sim.Counters{StepsExecuted: 6999, CyclesSkipped: 38, WakesEnqueued: 11640}},
		{2, 4, sim.Counters{StepsExecuted: 6474, CyclesSkipped: 39, WakesEnqueued: 7509}},
		{2, -1, sim.Counters{StepsExecuted: 6474, CyclesSkipped: 39, WakesEnqueued: 7509}},
		{4, 1, sim.Counters{StepsExecuted: 10763, CyclesSkipped: 38, WakesEnqueued: 11640}},
		{4, 4, sim.Counters{StepsExecuted: 10238, CyclesSkipped: 39, WakesEnqueued: 7509}},
		{4, -1, sim.Counters{StepsExecuted: 10238, CyclesSkipped: 39, WakesEnqueued: 7509}},
		{8, 1, sim.Counters{StepsExecuted: 16222, CyclesSkipped: 38, WakesEnqueued: 11640}},
		{8, 4, sim.Counters{StepsExecuted: 15697, CyclesSkipped: 39, WakesEnqueued: 7509}},
		{8, -1, sim.Counters{StepsExecuted: 15697, CyclesSkipped: 39, WakesEnqueued: 7509}},
	} {
		m := NewMachine(Config{PEs: 8, Shards: tc.shards, EpochWindow: tc.window}, prog)
		res, err := m.Run(500_000_000, token.Int(6))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0] != token.Int(2486) {
			t.Fatalf("shards=%d window=%d: result %v, want [2486]", tc.shards, tc.window, res)
		}
		if got := m.Engine().Counters(); got != tc.want {
			t.Errorf("shards=%d window=%d: counters %+v, want %+v", tc.shards, tc.window, got, tc.want)
		}
		if got := m.WorkerSteps(); !reflect.DeepEqual(got, stepsBy[tc.shards]) {
			t.Errorf("shards=%d window=%d: worker steps %v, want %v", tc.shards, tc.window, got, stepsBy[tc.shards])
		}
	}
}

// TestShardedErrorsMatchSequential runs failure paths sharded: faults are
// deferred to commit (a module's single-assignment fault beside its
// shard's log, ahead of it), so every shard count must report exactly
// what the sequential machine reports and stop at the same cycle with the
// same firings. Epoch windows must report the same error; they may stop
// later, because the other shards step ahead inside the window before
// the fault commits. The double write names the cell's global address:
// on four PEs cell 5 lives on PE 1.
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
	} {
		prog, err := id.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		seq := run(Config{PEs: 4}, prog, tc.limit, tc.arg)
		if !strings.Contains(seq.err, tc.want) {
			t.Fatalf("%s: sequential run gave %q, want %q", tc.name, seq.err, tc.want)
		}
		for _, shards := range []int{2, 4} {
			if got := run(Config{PEs: 4, Shards: shards}, prog, tc.limit, tc.arg); got != seq {
				t.Errorf("%s, %d shards: got %+v, want the sequential %+v", tc.name, shards, got, seq)
			}
		}
		for _, window := range []int{-1, 4} {
			if got := run(Config{PEs: 4, Shards: 2, EpochWindow: window}, prog, tc.limit, tc.arg); got.err != seq.err {
				t.Errorf("%s, window %d: got %q, want the sequential %q", tc.name, window, got.err, seq.err)
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
	if m.WorkerSteps() != nil {
		t.Fatal("traced machine must run sequentially")
	}
	if tr.Total() == 0 {
		t.Fatal("tracer saw nothing")
	}
}
