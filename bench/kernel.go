package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/direct"
	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/workload"
)

// kernelLimit bounds every kernel run; the largest list entry needs well
// under a million cycles.
const kernelLimit = 1_000_000_000

// family is one paper program of the kernel list, with the range its size
// argument is drawn from.
type family struct {
	name   string
	src    string
	lo, hi int64
}

var kernelFamilies = []family{
	{"matmul", workload.MatMulID, 10, 14},
	{"fib", workload.FibID, 18, 20},
	{"wavefront", workload.WavefrontID, 32, 48},
	{"sumloop", workload.SumLoopID, 20000, 50000},
	{"producerconsumer", workload.ProducerConsumerID, 1000, 3000},
	{"trapezoid", workload.TrapezoidID, 1000, 3000},
}

// kernelPEs are the machine sizes every family runs at, on the default
// configuration otherwise.
var kernelPEs = []int{4, 8, 16, 32}

// entryArgs are a family's entry arguments for size n.
func (f family) entryArgs(n int64) []token.Value {
	if f.name == "trapezoid" {
		// ∫₀¹ x² dx over n intervals, as in E5.
		return []token.Value{token.Float(0), token.Float(1), token.Float(float64(n))}
	}
	return []token.Value{token.Int(n)}
}

// drawKernelSizes draws each family's size from the seed.
func drawKernelSizes(seed uint64) []int64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	sizes := make([]int64, len(kernelFamilies))
	for i, f := range kernelFamilies {
		sizes[i] = f.lo + rng.Int63n(f.hi-f.lo+1)
	}
	return sizes
}

// kernelCase is a list entry ready to run, with its reference answer from
// the graph interpreter.
type kernelCase struct {
	fam   int
	label string
	prog  *graph.Program
	pes   int
	args  []token.Value
	want  []token.Value
	fired uint64
}

// kernelBench runs the list on the TTDA, pass after pass.
type kernelBench struct {
	seed  uint64
	cases []kernelCase
	// set-up measurements for the id and graph layers
	compileMs         []float64
	interpNsPerFiring float64
}

// setupKernel draws one size per family, compiles each family, computes
// its reference answer on graph.NewInterp, and lists it at every PE count.
func setupKernel(seed uint64) (bench, error) {
	k := &kernelBench{seed: seed}
	var interpNs, interpFired float64
	for fi, n := range drawKernelSizes(seed) {
		f := kernelFamilies[fi]
		c0 := cpuTime()
		prog, err := id.Compile(f.src)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", f.name, err)
		}
		k.compileMs = append(k.compileMs, cpuMsSince(c0))
		args := f.entryArgs(n)
		c0 = cpuTime()
		it := graph.NewInterp(prog)
		want, err := it.Run(args...)
		if err != nil {
			return nil, fmt.Errorf("reference %s(%d): %w", f.name, n, err)
		}
		interpNs += float64((cpuTime() - c0).Nanoseconds())
		interpFired += float64(it.Fired())
		for _, pes := range kernelPEs {
			k.cases = append(k.cases, kernelCase{
				fam:   fi,
				label: fmt.Sprintf("%s(%d)@%dPE", f.name, n, pes),
				prog:  prog,
				pes:   pes,
				args:  args,
				want:  want,
				fired: it.Fired(),
			})
		}
	}
	k.interpNsPerFiring = interpNs / interpFired
	return k, nil
}

func (k *kernelBench) close() {}

// plantWrong corrupts the first reference answer.
func (k *kernelBench) plantWrong() {
	c := &k.cases[0]
	w := append([]token.Value(nil), c.want...)
	if w[0].Kind == token.KindInt {
		w[0] = token.Int(w[0].I + 1)
	} else {
		w[0] = token.Float(w[0].F + 1)
	}
	c.want = w
}

// passRecord accumulates one pass's per-run costs and the exact simulated
// statistics the layer metrics report.
type passRecord struct {
	// famNs, famFired and famAlloc are each family's CPU time, firings
	// and bytes allocated.
	famNs, famFired, famAlloc []float64
	// costs is each run's CPU ms per 1000 simulated firings.
	costs      []float64
	constructs []float64 // CPU ms
	runNs      []float64 // CPU ns per firing, per run
	runTotalNs float64
	sum        core.Summary // summed (maxima for peaks) over the list
	aluSum     float64
	eng        sim.Counters
}

// pass runs the whole list once on the TTDA, checking every answer, and
// returns the pass digest. Each run is timed on the CPU clock from machine
// construction to the end of its check.
func (k *kernelBench) pass(tr *tracer, req int64, out *outcome, rec *passRecord) string {
	h := sha256.New()
	ps := tr.begin("kernel.pass", 0, req, 0)
	defer tr.end(ps)
	for _, c := range k.cases {
		out.attempted++
		a0 := allocatedBytes()
		c0 := cpuTime()
		sp := tr.begin("core.NewMachine", ps, req, 0)
		m := core.NewMachine(core.Config{PEs: c.pes}, c.prog)
		tr.end(sp)
		c1 := cpuTime()
		sp = tr.begin("core.Machine.Run", ps, req, 0)
		res, err := m.Run(kernelLimit, c.args...)
		tr.end(sp)
		c2 := cpuTime()
		sp = tr.begin("check", ps, req, 0)
		var s core.Summary
		if err == nil {
			s = m.Summarize()
			rec.add(s, m.Engine().Counters())
			writeSummary(h, c.label, s)
			fmt.Fprintf(h, " engine=%+v\n", m.Engine().Counters())
		}
		tr.end(sp)
		if err != nil {
			out.failed++
			out.wrong = append(out.wrong, fmt.Sprintf("%s on the TTDA: %v", c.label, err))
			rec.costs = append(rec.costs, math.Inf(1))
			continue
		}
		if msg := sameValues(res, c.want); msg != "" {
			out.wrong = append(out.wrong, fmt.Sprintf("%s on the TTDA: %s", c.label, msg))
		}
		if s.Fired != c.fired {
			out.wrong = append(out.wrong, fmt.Sprintf("%s on the TTDA fired %d instructions, the interpreter %d", c.label, s.Fired, c.fired))
		}
		totalNs := float64((cpuTime() - c0).Nanoseconds())
		runNs := float64((c2 - c1).Nanoseconds())
		fired := float64(s.Fired)
		rec.famNs[c.fam] += totalNs
		rec.famFired[c.fam] += fired
		rec.famAlloc[c.fam] += allocatedBytes() - a0
		rec.costs = append(rec.costs, totalNs/1e6*1000/fired)
		rec.constructs = append(rec.constructs, float64((c1-c0).Nanoseconds())/1e6)
		rec.runNs = append(rec.runNs, runNs/fired)
		rec.runTotalNs += runNs
	}
	return hex.EncodeToString(h.Sum(nil))
}

func newPassRecord() *passRecord {
	n := len(kernelFamilies)
	return &passRecord{famNs: make([]float64, n), famFired: make([]float64, n), famAlloc: make([]float64, n)}
}

// rate is the pass's simulated firings per CPU second on a mix that gives
// every family an equal share of the firings, so the seed's choice of sizes
// does not move it.
func (r *passRecord) rate() float64 {
	return 1e9 / perFamilyMean(r.famNs, r.famFired)
}

// allocKB is the KB allocated per 1000 simulated firings on the same
// equal-share mix.
func (r *passRecord) allocKB() float64 {
	return perFamilyMean(r.famAlloc, r.famFired) * 1000 / 1024
}

// perFamilyMean is the mean over families of x per firing.
func perFamilyMean(x, fired []float64) float64 {
	var sum float64
	for f := range x {
		sum += x[f] / fired[f]
	}
	return sum / float64(len(x))
}

func (r *passRecord) add(s core.Summary, eng sim.Counters) {
	r.sum.Cycles += s.Cycles
	r.sum.Fired += s.Fired
	r.sum.Matches += s.Matches
	r.sum.MatchStoreMax = max(r.sum.MatchStoreMax, s.MatchStoreMax)
	r.sum.CtxPeak = max(r.sum.CtxPeak, s.CtxPeak)
	r.sum.NetSends += s.NetSends
	r.sum.LocalBypass += s.LocalBypass
	r.sum.ISReads += s.ISReads
	r.sum.ISWrites += s.ISWrites
	r.sum.DeferredReads += s.DeferredReads
	r.aluSum += s.ALUUtilization
	r.eng.StepsExecuted += eng.StepsExecuted
	r.eng.CyclesSkipped += eng.CyclesSkipped
	r.eng.WakesEnqueued += eng.WakesEnqueued
}

// writeSummary renders every simulated statistic of one run, exactly, into
// the digest.
func writeSummary(h hash.Hash, label string, s core.Summary) {
	fmt.Fprintf(h, "%s cycles=%d fired=%d alu=%x matches=%d msmax=%d msmean=%x sends=%d bypass=%d d0=%d d1=%d d2=%d deferred=%d isr=%d isw=%d ctx=%d/%d/%d",
		label, s.Cycles, s.Fired, math.Float64bits(s.ALUUtilization), s.Matches, s.MatchStoreMax, math.Float64bits(s.MatchStoreMean),
		s.NetSends, s.LocalBypass, s.TokensD0, s.TokensD1, s.TokensD2, s.DeferredReads, s.ISReads, s.ISWrites,
		s.CtxAllocated, s.CtxFreed, s.CtxPeak)
}

// sameValues reports how got differs from want, or "" when they are
// bit-identical.
func sameValues(got, want []token.Value) string {
	if len(got) != len(want) {
		return fmt.Sprintf("returned %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Sprintf("result %d = %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// run warms up with at least one pass, then runs passes until e.seconds
// have passed. Every pass's digest must equal the first; at the default
// seed it must equal the committed one.
func (k *kernelBench) run(e env) (*outcome, error) {
	out := &outcome{
		work:   "simulated instruction firings (each program family an equal share)",
		op:     "1000 simulated firings, over every run of every pass",
		phases: map[string]float64{}, layers: map[string]float64{},
	}
	warm := &outcome{}
	w0 := time.Now()
	want := k.pass(nil, 0, warm, newPassRecord())
	for time.Since(w0) < 500*time.Millisecond {
		k.pass(nil, 0, warm, newPassRecord())
	}
	out.wrong = append(out.wrong, warm.wrong...)
	out.digest = want
	out.phases["warmup"] = time.Since(w0).Seconds()
	if k.seed == defaultSeed && want != kernelDigestDefaultSeed {
		out.wrong = append(out.wrong, fmt.Sprintf("TTDA digest at seed %d is %s, committed %s", k.seed, want, kernelDigestDefaultSeed))
	}

	var rec *passRecord
	start := time.Now()
	for req := int64(1); len(out.rates) == 0 || time.Since(start).Seconds() < e.seconds; req++ {
		rec = newPassRecord()
		got := k.pass(e.tr, req, out, rec)
		out.endWindow(rec.rate(), rec.allocKB(), rec.costs)
		if got != want {
			out.wrong = append(out.wrong, fmt.Sprintf("pass %d digest %s differs from the warm-up pass's %s", req, got, want))
		}
	}
	out.phases["timed"] = time.Since(start).Seconds()

	l := out.layers
	l["id.compile_ms"] = median(k.compileMs)
	l["graph.interp_ns_per_firing"] = k.interpNsPerFiring
	l["trace.coverage_frac"] = e.tr.coverage("kernel.pass")
	s := rec.sum
	l["core.construct_ms"] = median(rec.constructs)
	l["core.run_ns_per_firing"] = median(rec.runNs)
	l["core.cycles"] = float64(s.Cycles)
	l["core.fired"] = float64(s.Fired)
	l["core.matches"] = float64(s.Matches)
	l["core.match_store_max"] = float64(s.MatchStoreMax)
	l["core.alu_util"] = rec.aluSum / float64(len(k.cases))
	l["core.ctx_peak"] = float64(s.CtxPeak)
	l["sim.steps_executed"] = float64(rec.eng.StepsExecuted)
	l["sim.cycles_skipped"] = float64(rec.eng.CyclesSkipped)
	l["sim.wakes_enqueued"] = float64(rec.eng.WakesEnqueued)
	l["sim.steps_per_cycle"] = ratio(float64(rec.eng.StepsExecuted), float64(s.Cycles))
	l["sim.ns_per_step"] = ratio(rec.runTotalNs, float64(rec.eng.StepsExecuted))
	l["network.sends"] = float64(s.NetSends)
	l["network.local_bypass_frac"] = ratio(float64(s.LocalBypass), float64(s.NetSends+s.LocalBypass))
	l["istructure.reads"] = float64(s.ISReads)
	l["istructure.writes"] = float64(s.ISWrites)
	l["istructure.deferred_frac"] = ratio(float64(s.DeferredReads), float64(s.ISReads))
	return out, nil
}

// extras times graph.Compile on each family, one pass of the list on the
// direct backend, and the two kernel knobs (knobs.go).
func (k *kernelBench) extras(layers map[string]float64) ([]string, error) {
	var ms []float64
	for _, f := range kernelFamilies {
		p, err := id.Compile(f.src)
		if err != nil {
			return nil, err
		}
		c0 := cpuTime()
		if _, err := graph.Compile(p); err != nil {
			return nil, fmt.Errorf("graph.Compile %s: %w", f.name, err)
		}
		ms = append(ms, cpuMsSince(c0))
	}
	layers["graph.compile_ms"] = median(ms)
	wrong := k.directPass(layers)
	knobWrong, err := kernelKnobs(k.cases, layers)
	return append(wrong, knobWrong...), err
}

// directPass runs the list once on the direct backend, which executes the
// same plans without the cycle model, and checks every answer and firing
// count against the interpreter's.
func (k *kernelBench) directPass(layers map[string]float64) []string {
	var wrong []string
	var constructUs []float64
	var runNs, fired float64
	for _, c := range k.cases {
		c0 := cpuTime()
		x := direct.New(c.prog)
		c1 := cpuTime()
		res, err := x.Run(c.args...)
		c2 := cpuTime()
		switch {
		case err != nil:
			wrong = append(wrong, fmt.Sprintf("%s on direct: %v", c.label, err))
			continue
		case sameValues(res, c.want) != "":
			wrong = append(wrong, fmt.Sprintf("%s on direct: %s", c.label, sameValues(res, c.want)))
		case x.Fired() != c.fired:
			wrong = append(wrong, fmt.Sprintf("%s on direct fired %d instructions, the interpreter %d", c.label, x.Fired(), c.fired))
		}
		constructUs = append(constructUs, float64((c1-c0).Nanoseconds())/1e3)
		runNs += float64((c2 - c1).Nanoseconds())
		fired += float64(x.Fired())
	}
	layers["direct.construct_us"] = median(constructUs)
	layers["direct.ns_per_firing"] = ratio(runNs, fired)
	return wrong
}
