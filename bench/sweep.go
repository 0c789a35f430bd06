package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/conformance"
	"repro/internal/experiments"
	"repro/internal/id"
	"repro/internal/sweep"
	"repro/internal/vn"
)

// experimentFns is every experiment and ablation, in the order
// experiments.All and experiments.Ablations run them (a test keeps the two
// in step). The sweep calls them one at a time so each gets its own span.
var experimentFns = []struct {
	id string
	fn func(experiments.Options) experiments.Result
}{
	{"E1", experiments.E1LatencyTolerance}, {"E2", experiments.E2ContextCounts},
	{"E3", experiments.E3CacheCoherence}, {"E4", experiments.E4ReadBeforeWrite},
	{"E5", experiments.E5Trapezoid}, {"E6", experiments.E6PipelineAnatomy},
	{"E7", experiments.E7Cmmp}, {"E8", experiments.E8Cmstar},
	{"E9", experiments.E9FetchAndAdd}, {"E10", experiments.E10ConnectionMachine},
	{"E11", experiments.E11Emulator}, {"E12", experiments.E12VLIW},
	{"E13", experiments.E13ParallelismGrail}, {"E14", experiments.E14ConformanceSweep},
	{"A1", experiments.A1Optimizer}, {"A2", experiments.A2MatchCapacity},
	{"A3", experiments.A3PipelineBandwidth}, {"A4", experiments.A4Topology},
	{"A5", experiments.A5OpTiming},
}

// conformanceSeeds is the size of each iteration's conformance run.
const conformanceSeeds = 64

// sweepBench regenerates the full experiment report and runs a conformance
// run, iteration after iteration.
type sweepBench struct {
	seeds []uint64
}

// setupSweep draws the conformance seeds and checks that both executable
// forms of every generated program build.
func setupSweep(seed uint64) (bench, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	s := &sweepBench{}
	for i := 0; i < conformanceSeeds; i++ {
		cs := rng.Uint64()
		w := conformance.Generate(cs)
		if _, err := id.Compile(w.IDSource()); err != nil {
			return nil, fmt.Errorf("conformance seed %d: %w", cs, err)
		}
		if _, err := vn.Assemble(w.ASMSource()); err != nil {
			return nil, fmt.Errorf("conformance seed %d: %w", cs, err)
		}
		s.seeds = append(s.seeds, cs)
	}
	return s, nil
}

func (s *sweepBench) close() {}

// tablesDigest hashes every result's tables and finding, leaving out E11:
// its finding embeds wall-time ratios and its emulator hop counts depend on
// goroutine scheduling.
func tablesDigest(results []experiments.Result) string {
	h := sha256.New()
	for _, r := range results {
		if r.ID == "E11" {
			continue
		}
		io.WriteString(h, r.ID+"\n")
		for _, t := range r.Tables {
			io.WriteString(h, t.String())
		}
		io.WriteString(h, r.Finding+"\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

type seedCheck struct {
	ms         float64
	violations []conformance.Violation
}

// checkSeeds runs conformance.CheckSeed over seeds on the sweep pool.
func checkSeeds(seeds []uint64, workers int, tr *tracer, parent int, req int64) ([]seedCheck, error) {
	return sweep.Run(seeds, func(env sweep.Env, seed uint64) (seedCheck, error) {
		sp := tr.begin("conformance.CheckSeed", parent, req, 1+env.Index)
		t0 := time.Now()
		vs := conformance.CheckSeed(seed)
		tr.end(sp)
		return seedCheck{ms: msSince(t0), violations: vs}, nil
	}, sweep.Options{Workers: workers})
}

// run measures whole iterations until e.seconds have passed. Every
// experiment and the conformance run use nproc sweep workers; their CPU
// time is that of every thread of the process.
func (s *sweepBench) run(e env) (*outcome, error) {
	out := &outcome{
		work:   "iterations (every experiment plus a conformance run)",
		op:     "experiment, over the 19 experiments of every iteration",
		phases: map[string]float64{}, layers: map[string]float64{},
		refThreads: nproc,
	}
	opts := experiments.Options{SweepWorkers: nproc}
	var seedMs []float64
	expMs := map[string][]float64{}
	start := time.Now()
	for req := int64(1); len(out.rates) == 0 || time.Since(start).Seconds() < e.seconds; req++ {
		it := e.tr.begin("sweep.iteration", 0, req, 0)
		a0 := allocatedBytes()
		c0, s0, sa0, lastSample := cpuTime(), out.sampleCPU, out.sampleAlloc, cpuTime()
		var results []experiments.Result
		var cpuMs []float64
		for _, x := range experimentFns {
			sp := e.tr.begin("experiments."+x.id, it, req, 0)
			c := cpuTime()
			r := x.fn(opts)
			cpuMs = append(cpuMs, cpuMsSince(c))
			e.tr.end(sp)
			results = append(results, r)
			if cpuTime()-lastSample >= hostSampleEvery {
				sp := e.tr.begin("host.sample", it, req, 0)
				out.sampleHost()
				e.tr.end(sp)
				lastSample = cpuTime()
			}
		}
		cs := e.tr.begin("conformance.run", it, req, 0)
		checks, err := checkSeeds(s.seeds, nproc, e.tr, cs, req)
		e.tr.end(cs)
		if err != nil {
			return nil, err
		}
		rate := 1 / (cpuTime() - c0 - (out.sampleCPU - s0)).Seconds()
		alloc := (allocatedBytes() - a0 - (out.sampleAlloc - sa0)) / 1024
		e.tr.end(it)
		out.endWindow(rate, alloc, cpuMs)

		for i, r := range results {
			out.attempted++
			expMs[r.ID] = append(expMs[r.ID], cpuMs[i])
			if r.Err != nil {
				out.failed++
				out.wrong = append(out.wrong, fmt.Sprintf("experiment %s: %v", r.ID, r.Err))
			}
		}
		d := tablesDigest(results)
		out.digest = d
		if d != sweepTablesDigest {
			out.wrong = append(out.wrong, fmt.Sprintf("iteration %d tables digest %s, committed %s", req, d, sweepTablesDigest))
		}
		for _, c := range checks {
			out.attempted++
			seedMs = append(seedMs, c.ms)
			for _, v := range c.violations {
				out.wrong = append(out.wrong, "conformance violation: "+v.String())
			}
		}
	}
	out.phases["timed"] = time.Since(start).Seconds()
	for _, x := range experimentFns {
		out.layers["experiments."+x.id+".cpu_ms"] = median(expMs[x.id])
	}
	asc := sorted(seedMs)
	out.layers["conformance.seed_ms.p50"] = nearestRank(asc, 0.5)
	out.layers["conformance.seed_ms.p99"] = nearestRank(asc, 0.99)
	out.layers["trace.coverage_frac"] = e.tr.coverage("sweep.iteration")
	return out, nil
}

// extras counts the oracle checks of a conformance run, and times the
// run's seeds on one worker at GOMAXPROCS=1 against nproc workers at
// GOMAXPROCS=nproc.
func (s *sweepBench) extras(layers map[string]float64) ([]string, error) {
	var wrong []string
	rep := conformance.SweepOpts(conformanceSeeds, nproc)
	layers["conformance.checks"] = float64(rep.Checks)
	for _, v := range rep.Violations {
		wrong = append(wrong, "conformance violation: "+v.String())
	}
	var walls [2]time.Duration
	for i, workers := range []int{1, nproc} {
		prev := runtime.GOMAXPROCS(workers)
		t0 := time.Now()
		_, err := checkSeeds(s.seeds, workers, nil, 0, 0)
		walls[i] = time.Since(t0)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
	}
	layers["sweep.speedup_vs_1"] = walls[0].Seconds() / walls[1].Seconds()
	return wrong, nil
}
