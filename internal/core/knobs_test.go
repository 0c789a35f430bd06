package core

import (
	"bytes"
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

// The tests in this file pin Config's retired fields, Shards, EpochWindow
// and Compiled: they remain only because the benchmark's bench/knobs.go
// sets them, and setting them must change nothing. They go with the
// fields.

// TestRetiredKnobsChangeNothing runs every golden scenario with Shards 2
// and 4, EpochWindow -1 and 4, and Compiled set, one at a time, and
// requires the default configuration's results, Summarize(), engine
// counters and end-of-run checkpoint bytes from each.
func TestRetiredKnobsChangeNothing(t *testing.T) {
	knobs := []struct {
		name string
		set  func(*Config)
	}{
		{"Shards=2", func(c *Config) { c.Shards = 2 }},
		{"Shards=4", func(c *Config) { c.Shards = 4 }},
		{"EpochWindow=-1", func(c *Config) { c.EpochWindow = -1 }},
		{"EpochWindow=4", func(c *Config) { c.EpochWindow = 4 }},
		{"Compiled", func(c *Config) { c.Compiled = true }},
	}
	type outcome struct {
		results  []token.Value
		summary  Summary
		counters sim.Counters
		ckpt     []byte
	}
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			prog, err := id.Compile(sc.src)
			if err != nil {
				t.Fatal(err)
			}
			run := func(cfg Config) outcome {
				m := NewMachine(cfg, prog)
				res, err := m.Run(500_000_000, sc.args...)
				if err != nil {
					t.Fatal(err)
				}
				return outcome{res, m.Summarize(), m.Engine().Counters(), sim.Checkpoint(m)}
			}
			want := run(sc.cfg())
			for _, k := range knobs {
				cfg := sc.cfg()
				k.set(&cfg)
				got := run(cfg)
				if !reflect.DeepEqual(got.results, want.results) || got.summary != want.summary {
					t.Errorf("%s: results %v, summary %+v; default %v, %+v", k.name, got.results, got.summary, want.results, want.summary)
				}
				if got.counters != want.counters {
					t.Errorf("%s: engine counters %+v, default %+v", k.name, got.counters, want.counters)
				}
				if !bytes.Equal(got.ckpt, want.ckpt) {
					t.Errorf("%s: the end-of-run checkpoint differs from the default run's (%d vs %d bytes)", k.name, len(got.ckpt), len(want.ckpt))
				}
			}
		})
	}
}

// TestShardedBitIdentical requires every golden scenario run with Shards
// 2, 3, 4 and 8 to give its default run's full golden snapshot: results,
// cycle count, machine statistics and per-PE statistics.
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

// TestShardedIndependentOfGOMAXPROCS requires a run that sets Shards to
// give the same snapshot at GOMAXPROCS 1, 2 and the default.
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

// TestWindowedBitIdentical requires every golden scenario run with Shards
// 2 and 4 and EpochWindow 4 or -1 (the values callers set when the fields
// chose multi-tick epochs) to give its default run's full snapshot.
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

// TestWindowedIndependentOfGOMAXPROCS requires a run that sets Shards and
// EpochWindow to give the same snapshot at GOMAXPROCS 1, 2 and 4.
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

// TestShardedErrorsMatchSequential runs failure paths with Shards and
// EpochWindow set: each run must report exactly what the default machine
// reports and stop at the same cycle with the same firings. The double
// write names the cell's global address: on four PEs cell 5 lives on PE 1.
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
