package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current simulator")

// peSnapshot is the deterministic per-PE statistics contract: every field
// must be bit-identical run-to-run and across kernel optimizations.
type peSnapshot struct {
	Fired       uint64  `json:"fired"`
	Matches     uint64  `json:"matches"`
	TokensD0    uint64  `json:"d0"`
	TokensD1    uint64  `json:"d1"`
	TokensD2    uint64  `json:"d2"`
	NetSends    uint64  `json:"netSends"`
	LocalBypass uint64  `json:"localBypass"`
	Overflows   uint64  `json:"overflows"`
	Stalls      uint64  `json:"stalls"`
	ALUBusy     uint64  `json:"aluBusy"`
	OccMax      int64   `json:"occMax"`
	OccMean     float64 `json:"occMean"`
}

// runSnapshot is one golden scenario's full observable outcome.
type runSnapshot struct {
	Results        []string     `json:"results"`
	Cycles         uint64       `json:"cycles"`
	ISResponses    uint64       `json:"isResponses"`
	Fired          uint64       `json:"fired"`
	ALUUtilization float64      `json:"aluUtilization"`
	Matches        uint64       `json:"matches"`
	MatchStoreMax  int64        `json:"matchStoreMax"`
	MatchStoreMean float64      `json:"matchStoreMean"`
	NetSends       uint64       `json:"netSends"`
	LocalBypass    uint64       `json:"localBypass"`
	TokensD0       uint64       `json:"d0"`
	TokensD1       uint64       `json:"d1"`
	TokensD2       uint64       `json:"d2"`
	DeferredReads  uint64       `json:"deferredReads"`
	ISReads        uint64       `json:"isReads"`
	ISWrites       uint64       `json:"isWrites"`
	CtxAllocated   uint64       `json:"ctxAllocated"`
	CtxFreed       uint64       `json:"ctxFreed"`
	CtxPeak        int          `json:"ctxPeak"`
	NetInjected    uint64       `json:"netInjected"`
	NetDelivered   uint64       `json:"netDelivered"`
	NetRefused     uint64       `json:"netRefused"`
	PEs            []peSnapshot `json:"pes"`
}

// goldenScenario is one (program, config) point. Configs cover the kernel
// paths the optimizations touch: multiple PE counts, real network
// topologies with backpressure, match-capacity overflow stalls, long
// latencies, I-structure traffic, and weighted ALU timings.
type goldenScenario struct {
	name string
	src  string
	args []token.Value
	cfg  func() Config
}

func weightedOpTime(op graph.Opcode) sim.Cycle {
	switch op {
	case graph.OpMul:
		return 3
	case graph.OpDiv, graph.OpMod:
		return 6
	default:
		return 1
	}
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{"fib12-pe1", workload.FibID, []token.Value{token.Int(12)}, func() Config { return Config{PEs: 1} }},
		{"fib12-pe4", workload.FibID, []token.Value{token.Int(12)}, func() Config { return Config{PEs: 4} }},
		{"fib12-pe8", workload.FibID, []token.Value{token.Int(12)}, func() Config { return Config{PEs: 8} }},
		{"sum100-pe3", workload.SumLoopID, []token.Value{token.Int(100)}, func() Config { return Config{PEs: 3} }},
		{"sum50-pe1-cap1", workload.SumLoopID, []token.Value{token.Int(50)}, func() Config { return Config{PEs: 1, MatchCapacity: 1} }},
		{"prodcons24-pe4", workload.ProducerConsumerID, []token.Value{token.Int(24)}, func() Config { return Config{PEs: 4} }},
		{"matmul4-pe8", workload.MatMulID, []token.Value{token.Int(4)}, func() Config { return Config{PEs: 8} }},
		{"matmul4-pe8-weighted", workload.MatMulID, []token.Value{token.Int(4)}, func() Config { return Config{PEs: 8, OpTime: weightedOpTime} }},
		{"collatz27-pe4-lat20", workload.CollatzID, []token.Value{token.Int(27)}, func() Config { return Config{PEs: 4, NetLatency: 20} }},
		{"collatz27-pe4-lat100", workload.CollatzID, []token.Value{token.Int(27)}, func() Config { return Config{PEs: 4, NetLatency: 100} }},
		{"wavefront6-pe4", workload.WavefrontID, []token.Value{token.Int(6)}, func() Config { return Config{PEs: 4} }},
		{"sum40-pe4-mesh", workload.SumLoopID, []token.Value{token.Int(40)}, func() Config {
			return Config{PEs: 4, Net: network.NewMesh(2, 2, false, 16)}
		}},
		{"fib11-pe8-hypercube", workload.FibID, []token.Value{token.Int(11)}, func() Config {
			return Config{PEs: 8, Net: network.NewHypercube(3, 16)}
		}},
		{"fib10-pe4-torus", workload.FibID, []token.Value{token.Int(10)}, func() Config {
			return Config{PEs: 4, Net: network.NewMesh(2, 2, true, 8)}
		}},
	}
}

// snapshotRun executes one scenario and captures every deterministic
// statistic the simulator reports.
func snapshotRun(t *testing.T, sc goldenScenario) runSnapshot {
	t.Helper()
	prog, err := id.Compile(sc.src)
	if err != nil {
		t.Fatalf("%s: compile: %v", sc.name, err)
	}
	return snapshotWith(t, sc, func(cfg Config) *Machine { return NewMachine(cfg, prog) })
}

// snapshotWith is snapshotRun on a machine from build.
func snapshotWith(t *testing.T, sc goldenScenario, build func(Config) *Machine) runSnapshot {
	t.Helper()
	m := build(sc.cfg())
	res, err := m.Run(500_000_000, sc.args...)
	if err != nil {
		t.Fatalf("%s: run: %v", sc.name, err)
	}
	var snap runSnapshot
	for _, v := range res {
		snap.Results = append(snap.Results, v.String())
	}
	s := m.Summarize()
	snap.Cycles = s.Cycles
	snap.ISResponses = m.Stats().ISResponses
	snap.Fired = s.Fired
	snap.ALUUtilization = s.ALUUtilization
	snap.Matches = s.Matches
	snap.MatchStoreMax = s.MatchStoreMax
	snap.MatchStoreMean = s.MatchStoreMean
	snap.NetSends = s.NetSends
	snap.LocalBypass = s.LocalBypass
	snap.TokensD0 = s.TokensD0
	snap.TokensD1 = s.TokensD1
	snap.TokensD2 = s.TokensD2
	snap.DeferredReads = s.DeferredReads
	snap.ISReads = s.ISReads
	snap.ISWrites = s.ISWrites
	snap.CtxAllocated = s.CtxAllocated
	snap.CtxFreed = s.CtxFreed
	snap.CtxPeak = s.CtxPeak
	ns := m.Network().Stats()
	snap.NetInjected = ns.Injected.Value()
	snap.NetDelivered = ns.Delivered.Value()
	snap.NetRefused = ns.Refused.Value()
	for _, ps := range m.PEStats() {
		snap.PEs = append(snap.PEs, peSnapshot{
			Fired:       ps.Fired.Value(),
			Matches:     ps.Matches.Value(),
			TokensD0:    ps.TokensD0.Value(),
			TokensD1:    ps.TokensD1.Value(),
			TokensD2:    ps.TokensD2.Value(),
			NetSends:    ps.NetSends.Value(),
			LocalBypass: ps.LocalBypass.Value(),
			Overflows:   ps.Overflows.Value(),
			Stalls:      ps.Stalls.Value(),
			ALUBusy:     ps.ALU.Busy(),
			OccMax:      ps.MatchStoreOccupancy.Max(),
			OccMean:     ps.MatchStoreOccupancy.Mean(),
		})
	}
	return snap
}

const goldenPath = "testdata/golden.json"

// TestGoldenStats locks the simulator to its recorded behaviour: simulated
// cycle counts, result tokens, and every deterministic statistic must be
// bit-identical to the committed golden file. Kernel optimizations
// (active-lists, cycle skipping, event-driven statistics) must not move a
// single number here. The file predates the plan-only pipeline: it was
// recorded by the IR-walking pipeline the plan replaced, so it also pins
// that replacement. Regenerate deliberately with:
//
//	go test ./internal/core -run TestGoldenStats -update
func TestGoldenStats(t *testing.T) {
	got := map[string]runSnapshot{}
	for _, sc := range goldenScenarios() {
		got[sc.name] = snapshotRun(t, sc)
	}
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d scenarios)", goldenPath, len(got))
		return
	}
	want := loadGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden has %d scenarios, current suite has %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %s missing from current suite", name)
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("scenario %s diverged from golden:\n  golden:  %s\n  current: %s", name, mustJSON(w), mustJSON(g))
		}
	}
}

// loadGolden reads the committed golden snapshots.
func loadGolden(t *testing.T) map[string]runSnapshot {
	t.Helper()
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	want := map[string]runSnapshot{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("marshal error: %v", err)
	}
	return string(b)
}

// TestCompiledGoldenStats runs every golden scenario through
// NewMachineWithPlan, on one plan per program compiled up front and shared
// by all of that program's scenarios, and requires the committed golden
// numbers. A machine only reads its plan, so a plan that has already
// served other PE counts, networks and timings must simulate exactly what
// NewMachine's private plan does.
func TestCompiledGoldenStats(t *testing.T) {
	want := loadGolden(t)
	plans := map[string]*graph.CompiledGraph{}
	for _, sc := range goldenScenarios() {
		plan := plans[sc.src]
		if plan == nil {
			prog, err := id.Compile(sc.src)
			if err != nil {
				t.Fatalf("%s: compile: %v", sc.name, err)
			}
			if plan, err = graph.Compile(prog); err != nil {
				t.Fatalf("%s: plan: %v", sc.name, err)
			}
			plans[sc.src] = plan
		}
		got := snapshotWith(t, sc, func(cfg Config) *Machine { return NewMachineWithPlan(cfg, plan) })
		if !reflect.DeepEqual(want[sc.name], got) {
			t.Errorf("scenario %s on a shared plan diverged from golden:\n  golden:  %s\n  current: %s",
				sc.name, mustJSON(want[sc.name]), mustJSON(got))
		}
	}
}

// TestMachineDeterminism runs the same program twice on 8 PEs and requires
// identical result tokens, MachineStats, and per-PE statistics — the
// repo's determinism contract, which the event-aware kernel must preserve.
func TestMachineDeterminism(t *testing.T) {
	sc := goldenScenario{
		name: "determinism-fib14-pe8",
		src:  workload.FibID,
		args: []token.Value{token.Int(14)},
		cfg:  func() Config { return Config{PEs: 8} },
	}
	first := snapshotRun(t, sc)
	second := snapshotRun(t, sc)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two identical runs diverged:\n  first:  %s\n  second: %s", mustJSON(first), mustJSON(second))
	}
	if first.Cycles == 0 || first.Fired == 0 {
		t.Fatalf("suspiciously empty run: %s", mustJSON(first))
	}
}
