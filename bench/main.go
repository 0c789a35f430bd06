// Command bench is the repository benchmark: one workload per process,
// measured end to end, with an optional traced run that attributes the time
// to the modules the workload calls.
//
//	go -C bench run . -workload kernel -seed 1 -seconds 25
//	go -C bench run . -workload serve-cold -seed 1 -seconds 25 -trace 1
//	go -C bench run . -compare runs/parent runs/change
//
// bench/run.sh builds the binary into .bench_build and runs it from the
// repository root; BENCHMARK.json names that script as the benchmark
// command. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it print
// every metric by name with its unit and sample count, and a stamp line
// recording the host, the seed, the phase durations and the code version.
// Any wrong output makes the command exit non-zero. See README.md for the
// workloads, the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose simulation digests are committed in
// digests.go.
const defaultSeed = 1

// nproc bounds every pool the benchmark drives: sweep workers and serve
// workers. It is the machine's CPU count, and every workload runs at the
// default GOMAXPROCS of the same value.
var nproc = runtime.NumCPU()

// metricDef is one end-to-end metric. Every workload reports every one of
// them; README.md defines each per workload.
type metricDef struct {
	name, unit string
}

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"p50_ms", "ms"},
	{"alloc_kb", "KB"},
}

// serveMachines are the machines the serve mix sends traffic to, in the
// order their per-machine layer metrics are listed.
var serveMachines = []string{"ttda", "direct", "vn", "cmmp", "cmstar", "ultra", "hep"}

// layerNames lists every per-layer metric a traced run prints. A workload
// that never calls into a layer reports 0 for that layer's metrics.
var layerNames = func() []string {
	names := []string{
		"core.construct_ms", "core.run_ns_per_firing",
		"core.cycles", "core.fired", "core.matches", "core.match_store_max", "core.alu_util", "core.ctx_peak",
		"core.plan_speedup",
		"sim.steps_executed", "sim.cycles_skipped", "sim.wakes_enqueued", "sim.steps_per_cycle", "sim.ns_per_step",
		"sim.parallel.speedup_2shards",
		"network.sends", "network.local_bypass_frac",
		"istructure.reads", "istructure.writes", "istructure.deferred_frac",
		"id.compile_ms", "graph.compile_ms", "graph.interp_ns_per_firing",
		"direct.ns_per_firing", "direct.construct_us",
	}
	for _, e := range experimentFns {
		names = append(names, "experiments."+e.id+".cpu_ms")
	}
	names = append(names,
		"conformance.seed_ms.p50", "conformance.seed_ms.p99", "conformance.checks",
		"sweep.speedup_vs_1",
		"serve.p99_ms", "serve.server_ms.p50", "serve.server_ms.p99")
	for _, m := range serveMachines {
		names = append(names, "serve.server_ms."+m+".p50", "serve.server_ms."+m+".p99")
	}
	return append(names,
		"serve.front_ms.p50",
		"serve.hit_frac", "serve.coalesced_frac", "serve.executions", "serve.cache.evictions", "serve.cache.corruptions",
		"serve.capacity_rps",
		"serve.cache.get_us", "serve.cache.put_us", "serve.key_us",
		"serve.compile_ms", "serve.build_ms", "serve.run_ms", "serve.residual_ms",
		"runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.alloc_mb_per_s", "runtime.peak_rss_mb", "runtime.cpu_per_wall",
		"host.speed",
		"trace.overhead_frac", "trace.coverage_frac",
		"failed_frac",
	)
}()

// env is what one measured phase of a workload receives.
type env struct {
	seconds float64 // wall-clock length of the timed phase
	tr      *tracer // nil for an untraced phase
}

// outcome is what one measured phase reports.
type outcome struct {
	attempted, failed int
	// wrong describes every output that disagreed with its reference; any
	// entry makes the run incorrect. failures describes the first failed
	// or refused operations, which count in failed but are not wrong.
	wrong, failures []string
	// The timed phase is cut into windows (a kernel pass, a sweep
	// iteration, a second of serve requests), each closed by endWindow.
	// rates holds each window's work per CPU second and allocs its heap
	// allocation per unit of work in KB; throughput and alloc_kb are their
	// medians.
	rates, allocs []float64
	// opMs is each operation's CPU time in ms, +Inf for a failed one, and
	// opWin the window it ran in; p50_ms is the nearest-rank median.
	opMs  []float64
	opWin []int
	// refMs is each window's reference time, the mean of the host speed
	// samples taken in it (hostspeed.go); each window's timings are scaled
	// by the host speed it gives. refThreads is how many goroutines the
	// reference runs on: as many as the workload keeps busy, 1 when unset.
	// pending holds the current window's samples so far; sampleCPU and
	// sampleAlloc are the CPU time and heap bytes all samples took, which a
	// window measured across a sample leaves out.
	refMs       []float64
	refThreads  int
	pending     []float64
	sampleCPU   time.Duration
	sampleAlloc float64
	// work and op say what a rate counts and what one opMs sample is, for
	// the human-readable lines.
	work, op string
	// digest is the simulation digest the run checked, printed so a
	// deliberate change can update digests.go.
	digest string
	// notes are extra human-readable lines, such as a latency limit.
	notes  []string
	phases map[string]float64
	layers map[string]float64
}

// sampleHost times the reference once, as a host speed sample of the
// current window.
func (o *outcome) sampleHost() {
	c0 := cpuTime()
	ms, alloc := timeReference(max(o.refThreads, 1))
	o.pending = append(o.pending, ms)
	o.sampleCPU += cpuTime() - c0
	o.sampleAlloc += alloc
}

// endWindow records a window's rate, allocation and operation times, then
// takes its last host speed sample.
func (o *outcome) endWindow(rate, allocKB float64, opMs []float64) {
	o.rates = append(o.rates, rate)
	o.allocs = append(o.allocs, allocKB)
	for _, x := range opMs {
		o.opMs = append(o.opMs, x)
		o.opWin = append(o.opWin, len(o.refMs))
	}
	o.sampleHost()
	o.refMs = append(o.refMs, mean(o.pending))
	o.pending = o.pending[:0]
}

// bench is one set-up workload instance.
type bench interface {
	// run warms up, then measures for e.seconds.
	run(e env) (*outcome, error)
	// extras takes the traced run's follow-up measurements (knob
	// comparisons, replays) and adds their layer numbers.
	extras(layers map[string]float64) (wrong []string, err error)
	close()
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name  string
	setup func(seed uint64) (bench, error)
}

var workloads = []workloadDef{
	{"kernel", setupKernel},
	{"sweep", setupSweep},
	{"serve-cold", setupServeCold},
	{"serve-hot", setupServeHot},
}

// options is one invocation of a workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// setupReps is the minimum number of set-ups; cheap set-ups repeat
	// until setupBudget of wall time has passed, so their median is steady.
	setupReps   int
	setupBudget time.Duration
	// plantWrong corrupts one reference answer: the harness-teeth check
	// that a wrong output fails the run.
	plantWrong bool
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{setupReps: 3, setupBudget: time.Second}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 25, "wall-clock length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the phase untraced and traced, prints the per-layer metrics and writes the spans")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace-event file for -trace 1 (default .bench_build/trace-<workload>-<seed>.json)")
	cmp := fs.Bool("compare", false, "compare two sets of saved run outputs: -compare A B, each a directory of files")
	benchJSON := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories of run outputs")
			return 2
		}
		return compareCmd(*benchJSON, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	o.trace = *traced == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	}
	return runWorkload(o, stdout, stderr)
}

func workloadList() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up several times, measures it, checks its
// outputs and prints the result. It returns the process exit code.
func runWorkload(o options, stdout, stderr io.Writer) int {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, workloadList())
		return 2
	}
	st := newStamp(o)

	inst, setups, err := setUp(def, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s set-up: %v\n", o.workload, err)
		return 1
	}
	defer inst.close()
	if o.plantWrong {
		plantWrong(inst)
	}
	st.Phases["setup_each_cpu"] = median(setups)

	var res *outcome
	var layers map[string]float64
	if o.trace {
		res, layers, err = tracedRun(inst, o, st, stderr)
	} else {
		res, err = measure(inst, env{seconds: o.seconds})
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 1
	}
	for k, v := range res.phases {
		st.Phases[k] = v
	}

	var metrics map[string]float64
	if o.trace {
		metrics = layers
	} else {
		metrics = endToEnd(res, setups)
	}
	printReport(stdout, st, o, res, metrics, len(setups))
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "bench: failed operation: %s\n", f)
	}
	for _, w := range res.wrong {
		fmt.Fprintf(stderr, "bench: wrong output: %s\n", w)
	}
	if len(res.wrong) > 0 {
		return 1
	}
	return 0
}

// setUp runs the workload's set-up at least o.setupReps times, and more, up
// to 200, while the set-ups together stay under o.setupBudget, keeping the
// last instance. It returns each set-up's CPU time scaled by the host speed
// of the reference timed right after it; their median is setup_s. A set-up
// of a few milliseconds varies by tens of percent from one repetition to
// the next, and the median of many does not. Each set-up starts on a
// collected heap, so the garbage of the one before does not land in its
// time.
func setUp(def *workloadDef, o options) (bench, []float64, error) {
	var inst bench
	var times []float64
	timeReference(1) // the first run of the reference pays one-time costs
	start := time.Now()
	for len(times) < o.setupReps || (time.Since(start) < o.setupBudget && len(times) < 200) {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC()
		c0 := cpuTime()
		b, err := def.setup(o.seed)
		if err != nil {
			return nil, nil, err
		}
		s := (cpuTime() - c0).Seconds()
		ref, _ := timeReference(1)
		times = append(times, s*hostSpeed(ref))
		inst = b
	}
	return inst, times, nil
}

// measure runs one phase and adds the Go runtime's numbers for it. It
// first returns the set-up's garbage to the operating system and resets the
// peak resident set, so runtime.peak_rss_mb is the timed phase's own.
func measure(inst bench, e env) (*outcome, error) {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux); where that is not
	// possible the resident peak also covers set-up.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0, c0 := time.Now(), cpuTime()
	res, err := inst.run(e)
	wall, cpu := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if res.layers == nil {
		res.layers = map[string]float64{}
	}
	res.layers["runtime.peak_rss_mb"] = peakRSSMB()
	res.layers["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	res.layers["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res.layers["runtime.alloc_mb_per_s"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / wall
	res.layers["runtime.cpu_per_wall"] = cpu / wall
	res.layers["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	if len(res.opMs) == 0 || len(res.rates) == 0 || len(res.refMs) == 0 {
		return nil, errors.New("the timed phase completed no operation; raise -seconds")
	}
	return res, nil
}

// tracedRun measures the phase twice, untraced and then traced, for half
// the time each. The per-layer numbers come from the traced half, plus the
// workload's follow-up measurements; trace.overhead_frac compares the two
// halves' throughput.
func tracedRun(inst bench, o options, st *stamp, stderr io.Writer) (*outcome, map[string]float64, error) {
	half := o.seconds / 2
	plain, err := measure(inst, env{seconds: half})
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	res, err := measure(inst, env{seconds: half, tr: tr})
	if err != nil {
		return nil, nil, err
	}
	res.wrong = append(plain.wrong, res.wrong...)
	res.failures = append(plain.failures, res.failures...)
	res.attempted += plain.attempted
	res.failed += plain.failed

	layers := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		layers[n] = 0
	}
	for k, v := range res.layers {
		layers[k] = v
	}
	layers["host.speed"] = hostSpeed(median(res.refMs))
	layers["trace.overhead_frac"] = endToEnd(plain, nil)["throughput"]/endToEnd(res, nil)["throughput"] - 1
	wrong, err := inst.extras(layers)
	if err != nil {
		return nil, nil, err
	}
	res.wrong = append(res.wrong, wrong...)
	for k := range layers {
		if !slices.Contains(layerNames, k) {
			return nil, nil, fmt.Errorf("layer metric %q is not declared in layerNames", k)
		}
	}

	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return nil, nil, err
	}
	werr := tr.writeChrome(f, map[string]any{"stamp": st, "per_layer": layers})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, nil, fmt.Errorf("write trace: %w", werr)
	}
	fmt.Fprintf(stderr, "bench: wrote trace %s\n", o.traceOut)
	return res, layers, nil
}

// endToEnd computes every end-to-end metric of an untraced run. Each
// window's timings are scaled by that window's host speed, and each
// set-up's by its own (setUp), so they read as CPU time on the calibration
// host.
func endToEnd(res *outcome, setups []float64) map[string]float64 {
	rates := make([]float64, len(res.rates))
	for w, r := range res.rates {
		rates[w] = r / hostSpeed(res.refMs[w])
	}
	ops := make([]float64, len(res.opMs))
	for i, x := range res.opMs {
		ops[i] = x * hostSpeed(res.refMs[res.opWin[i]])
	}
	return map[string]float64{
		"setup_s":    median(setups),
		"throughput": median(rates),
		"p50_ms":     nearestRank(sorted(ops), 0.5),
		"alloc_kb":   median(res.allocs),
	}
}

// allocatedBytes is the total the process has allocated on the heap so
// far; unlike runtime.ReadMemStats it does not stop the world. It advances
// as the allocator's per-CPU caches are flushed, so it is exact over a
// window of many operations, not over one small one.
func allocatedBytes() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints the stamp, one line per metric, and the result line.
func printReport(w io.Writer, st *stamp, o options, res *outcome, metrics map[string]float64, setups int) {
	sj, _ := json.Marshal(st) // a stamp holds only strings and numbers
	fmt.Fprintf(w, "stamp: %s\n", sj)
	units := map[string]string{}
	for _, m := range e2eMetrics {
		units[m.name] = m.unit
	}
	var names []string
	if o.trace {
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
	} else {
		for _, m := range e2eMetrics {
			names = append(names, m.name)
		}
	}
	out := result{Correct: len(res.wrong) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOutput{}}
	for _, k := range names {
		v := metrics[k]
		unit := units[k]
		if unit == "" {
			unit = layerUnit(k)
		}
		note := ""
		switch k {
		case "setup_s":
			note = fmt.Sprintf("CPU time, median of %d set-ups, at host speed 1", setups)
		case "throughput":
			note = fmt.Sprintf("%s per CPU second, median of %d windows, at host speed 1", res.work, len(res.rates))
		case "p50_ms":
			note = fmt.Sprintf("CPU ms per %s, nearest rank over n=%d, at host speed 1", res.op, len(res.opMs))
		case "alloc_kb":
			note = fmt.Sprintf("median of %d windows", len(res.allocs))
		}
		if note != "" {
			fmt.Fprintf(w, "metric %-34s %16.6g %-6s %s\n", k, v, unit, note)
		} else {
			fmt.Fprintf(w, "metric %-34s %16.6g %s\n", k, v, unit)
		}
		out.Metrics[k] = metricOutput{Value: finite(v), Unit: unit}
	}
	if len(res.rates) > 0 {
		q1, q3 := quartiles(res.refMs)
		fmt.Fprintf(w, "host speed %.4g: reference %.4g ms against %.4g ms, median of %d (q1 %.4g, q3 %.4g); as measured: throughput %.6g, p50_ms %.6g\n",
			hostSpeed(median(res.refMs)), median(res.refMs), refNominalMs, len(res.refMs), q1, q3, median(res.rates), nearestRank(sorted(res.opMs), 0.5))
		q1, q3 = quartiles(res.rates)
		asc := sorted(res.rates)
		fmt.Fprintf(w, "windows %d: rate as measured min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n", len(asc), asc[0], q1, median(asc), q3, asc[len(asc)-1])
	}
	if res.digest != "" {
		fmt.Fprintln(w, "digest "+res.digest)
	}
	for _, line := range res.notes {
		fmt.Fprintln(w, line)
	}
	b, _ := json.Marshal(out) // finite() leaves no value JSON cannot encode
	fmt.Fprintf(w, "%s\n", b)
}

// finite maps +Inf (a failed operation in a percentile) to the largest
// float64, which JSON can carry and every limit reads as missed, and NaN
// (a statistic of no samples, on a layer the workload did not reach) to 0.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

// plantWrong corrupts a reference answer on workloads that support it.
func plantWrong(inst bench) {
	if p, ok := inst.(interface{ plantWrong() }); ok {
		p.plantWrong()
	}
}

// layerUnit names a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "ns_per"):
		return "ns"
	case strings.Contains(name, "_mb_per_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_util"), strings.Contains(name, "speed"),
		strings.HasSuffix(name, "_per_cycle"), strings.HasSuffix(name, "_per_wall"):
		return "ratio"
	}
	return "count"
}
