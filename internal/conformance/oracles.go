package conformance

import (
	"fmt"
	"strings"

	"repro/internal/direct"
	"repro/internal/machines/ultra"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/vn"
)

// Oracle names the eight check families.
type Oracle string

// Oracle families.
const (
	OracleResult      Oracle = "result-equivalence"
	OracleDeterminism Oracle = "determinism"
	OracleMetamorphic Oracle = "metamorphic"
	OracleHonesty     Oracle = "engine-honesty"
	OracleParallel    Oracle = "parallel-equivalence"
	OracleCompiled    Oracle = "compiled-equivalence"
	OracleCheckpoint  Oracle = "checkpoint-equivalence"
	OracleDirect      Oracle = "direct-equivalence"
)

// Violation is one failed check, carrying enough to reproduce it.
type Violation struct {
	Seed    uint64
	Oracle  Oracle
	Machine string
	Detail  string
	// Cycles is the uninterrupted run length of the machine involved, when
	// the check knows it — it seeds the time-travel repro below. Zero means
	// unknown.
	Cycles uint64
}

// Repro is the minimized reproduction command: it re-runs exactly the
// failing generator seed, verbosely, through all oracles.
func (v Violation) Repro() string {
	return fmt.Sprintf("go test ./internal/conformance -run TestConformanceSeeds -conformance.seed=%d -v", v.Seed)
}

// TimeTravel returns a command that materializes a TTDA checkpoint shortly
// before the divergence point for interactive debugging, or "" when the
// failing run's length is unknown.
func (v Violation) TimeTravel() string {
	if v.Cycles == 0 {
		return ""
	}
	const back = 64
	at := uint64(1)
	if v.Cycles > back {
		at = v.Cycles - back
	}
	return fmt.Sprintf("go test ./internal/conformance -run TestConformanceSeeds -conformance.seed=%d -conformance.ckpt-at=%d -conformance.ckpt-out=seed%d.ckpt",
		v.Seed, at, v.Seed)
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s: %s\n  reproduce with: %s", v.Oracle, v.Machine, v.Detail, v.Repro())
	if tt := v.TimeTravel(); tt != "" {
		s += fmt.Sprintf("\n  checkpoint just before divergence: %s", tt)
	}
	return s
}

// Report aggregates a sweep.
type Report struct {
	Programs   int
	Checks     int
	PerOracle  map[Oracle]int // checks run per family
	Violations []Violation
}

// counter tallies checks as they run.
type counter struct {
	seed   uint64
	checks int
	per    map[Oracle]int
	vs     []Violation
}

func newCounter(seed uint64) *counter {
	return &counter{seed: seed, per: map[Oracle]int{}}
}

func (c *counter) check(o Oracle, machine string, ok bool, detail func() string) {
	c.checkAt(o, machine, 0, ok, detail)
}

// checkAt is check with the uninterrupted run length attached, so a
// violation can print a checkpoint-just-before-divergence repro.
func (c *counter) checkAt(o Oracle, machine string, cycles uint64, ok bool, detail func() string) {
	c.checks++
	c.per[o]++
	if !ok {
		c.vs = append(c.vs, Violation{Seed: c.seed, Oracle: o, Machine: machine, Detail: detail(), Cycles: cycles})
	}
}

func (c *counter) fail(o Oracle, machine string, err error) {
	c.check(o, machine, false, func() string { return err.Error() })
}

// CheckSeed generates workload seed and runs all eight oracle families
// over the machine fleet, returning every violation (empty means the
// fleet conforms on this program).
func CheckSeed(seed uint64) []Violation {
	_, vs := checkSeed(seed)
	return vs
}

// checkSeed additionally reports how many checks ran (for Sweep/E14).
func checkSeed(seed uint64) (*counter, []Violation) {
	ct := newCounter(seed)
	w := Generate(seed)
	c, err := compile(w)
	if err != nil {
		// A generator emission the toolchain rejects is itself a
		// conformance failure: both forms must always be executable.
		ct.fail(OracleResult, "compile", fmt.Errorf("%v (%s)", err, w))
		return ct, ct.vs
	}
	checkResults(ct, c)
	checkDeterminism(ct, c)
	checkMetamorphic(ct, c)
	checkHonesty(ct, c)
	checkParallel(ct, c)
	checkCompiled(ct, c)
	checkCheckpoint(ct, c)
	checkDirect(ct, c)
	return ct, ct.vs
}

// --- oracle 1: result equivalence -----------------------------------

func checkResults(ct *counter, c *compiled) {
	want := c.w.Expected()
	expect := func(machine string, got int64, err error) {
		if err != nil {
			ct.fail(OracleResult, machine, err)
			return
		}
		ct.check(OracleResult, machine, got == want, func() string {
			return fmt.Sprintf("got %d, want %d (%s)", got, want, c.w)
		})
	}

	iv, _, err := runInterp(c)
	expect("interp", iv, err)

	ts, err := runTTDA(c, 2, 4, false, 0, 0, false)
	expect("ttda", ts.Result, err)

	ev, err := runEmulator(c, 4)
	expect("emulator", ev, err)

	for _, k := range []int{1, 2} {
		s, err := runVN(c, k, 4, true)
		expect(fmt.Sprintf("vn/k=%d", k), s.Result, err)
	}

	cs, err := runCmmp(c, 2, false, 0)
	expect("cmmp", cs.Result, err)

	ms, err := runCmstar(c, 8, false, 0)
	expect("cmstar", ms.Result, err)

	us, err := runUltra(c, true, false, 0)
	expect("ultra", us.Result, err)

	hs, err := runHEP(c, false, 0)
	expect("hep", hs.Result, err)

	cv, _, err := runConnection(c)
	expect("connection", cv, err)
}

// --- oracle 2: determinism ------------------------------------------

func checkDeterminism(ct *counter, c *compiled) {
	twice := func(machine string, run func() (Snapshot, error)) {
		a, err1 := run()
		b, err2 := run()
		if err1 != nil || err2 != nil {
			ct.fail(OracleDeterminism, machine, fmt.Errorf("run errors: %v / %v", err1, err2))
			return
		}
		ct.checkAt(OracleDeterminism, machine, a.Cycles, a == b, func() string {
			return fmt.Sprintf("two identical runs diverged:\n  first  %+v\n  second %+v", a, b)
		})
	}

	twice("ttda", func() (Snapshot, error) { return runTTDA(c, 2, 4, false, 0, 0, false) })
	twice("vn", func() (Snapshot, error) { return runVN(c, 2, 4, true) })
	twice("cmmp", func() (Snapshot, error) { return runCmmp(c, 2, false, 0) })
	twice("cmstar", func() (Snapshot, error) { return runCmstar(c, 8, false, 0) })
	twice("ultra", func() (Snapshot, error) { return runUltra(c, true, false, 0) })
	twice("hep", func() (Snapshot, error) { return runHEP(c, false, 0) })
	twice("connection", func() (Snapshot, error) {
		v, steps, err := runConnection(c)
		return Snapshot{Result: v, Cycles: uint64(steps)}, err
	})
	twice("vliw", func() (Snapshot, error) {
		r := runVLIW(c.w, 8)
		return Snapshot{Cycles: uint64(r.Cycles), Extra: [4]uint64{r.TotalOps, uint64(r.StallCycles), r.Misses, r.Loads}}, nil
	})
	// The emulator is untimed and internally concurrent; only its answer
	// is deterministic, which the result oracle already pins.
}

// --- oracle 3: metamorphic invariants -------------------------------

// cyclesAtLatency maps one latency knob setting to a cycle count — the
// seam the harness tests feed doctored doubles through.
type cyclesAtLatency func(latency sim.Cycle) (uint64, error)

// checkLatencyMonotone asserts the paper's Issue-1 direction: raising
// memory latency never makes a von Neumann machine faster.
func checkLatencyMonotone(ct *counter, machine string, lats []sim.Cycle, run cyclesAtLatency) {
	prev := uint64(0)
	prevLat := sim.Cycle(0)
	for i, lat := range lats {
		cyc, err := run(lat)
		if err != nil {
			ct.fail(OracleMetamorphic, machine, err)
			return
		}
		if i > 0 {
			got, last, l0, l1 := cyc, prev, prevLat, lat
			ct.check(OracleMetamorphic, machine, got >= last, func() string {
				return fmt.Sprintf("raising memory latency %d→%d DECREASED cycles %d→%d", l0, l1, last, got)
			})
		}
		prev, prevLat = cyc, lat
	}
}

// checkCriticalPathBound asserts the dataflow lower bound: no PE count
// can push TTDA time below the graph's critical path S∞ (depth in
// instruction waves, each wave at least one cycle).
func checkCriticalPathBound(ct *counter, depth int, pes int, cycles uint64, err error) {
	if err != nil {
		ct.fail(OracleMetamorphic, "ttda", err)
		return
	}
	ct.check(OracleMetamorphic, fmt.Sprintf("ttda/pes=%d", pes), cycles >= uint64(depth), func() string {
		return fmt.Sprintf("%d PEs ran in %d cycles, below the graph's S∞=%d", pes, cycles, depth)
	})
}

func checkMetamorphic(ct *counter, c *compiled) {
	checkLatencyMonotone(ct, "vn", []sim.Cycle{2, 6, 18}, func(lat sim.Cycle) (uint64, error) {
		s, err := runVN(c, 1, lat, true)
		return s.Cycles, err
	})
	checkLatencyMonotone(ct, "cmmp", []sim.Cycle{1, 4, 12}, func(lat sim.Cycle) (uint64, error) {
		s, err := runCmmp(c, lat, false, 0)
		return s.Cycles, err
	})
	checkLatencyMonotone(ct, "cmstar", []sim.Cycle{2, 8, 24}, func(lat sim.Cycle) (uint64, error) {
		s, err := runCmstar(c, lat, false, 0)
		return s.Cycles, err
	})
	checkLatencyMonotone(ct, "vliw", []sim.Cycle{2, 8, 20}, func(lat sim.Cycle) (uint64, error) {
		return uint64(runVLIW(c.w, lat).Cycles), nil
	})

	_, it, err := runInterp(c)
	if err != nil {
		ct.fail(OracleMetamorphic, "interp", err)
		return
	}
	for _, pes := range []int{1, 2, 4} {
		s, err := runTTDA(c, pes, 4, false, 0, 0, false)
		checkCriticalPathBound(ct, it.Depth(), pes, s.Cycles, err)
	}

	checkCombining(ct, c.w)
}

// checkCombining asserts the Ultracomputer claim under randomized
// contention: on a FETCH-AND-ADD-heavy workload, enabling omega-switch
// combining never increases cycle count.
func checkCombining(ct *counter, w Workload) {
	iters := 1 + w.Seed%6
	prog, err := vn.Assemble(faaBurstASM(int64(iters)))
	if err != nil {
		ct.fail(OracleMetamorphic, "ultra", err)
		return
	}
	run := func(combining bool) (uint64, error) {
		m := ultra.New(ultra.Config{LogProcessors: 2, Combining: combining}, prog)
		for p := 0; p < m.NumProcessors(); p++ {
			m.Core(p).Context(0).SetReg(4, vn.Word(ResultAddr+1+p))
		}
		elapsed, err := m.Run(runLimit)
		return uint64(elapsed), err
	}
	plain, err1 := run(false)
	comb, err2 := run(true)
	if err1 != nil || err2 != nil {
		ct.fail(OracleMetamorphic, "ultra", fmt.Errorf("faa runs: %v / %v", err1, err2))
		return
	}
	ct.check(OracleMetamorphic, "ultra/combining", comb <= plain, func() string {
		return fmt.Sprintf("combining INCREASED cycles on a FAA-heavy workload: %d (on) > %d (off), iters=%d", comb, plain, iters)
	})
}

// faaBurstASM is the hotspot kernel: every processor FETCH-AND-ADDs the
// shared cell at address 0 iters times, recording tickets privately
// (per-core r4 is preset to a distinct address).
func faaBurstASM(iters int64) string {
	return fmt.Sprintf(`
        li   r1, 0
        li   r2, 1
        li   r6, %d
loop:   beq  r6, r0, done
        faa  r3, r1, r2
        st   r3, r4, 0
        addi r6, r6, -1
        j    loop
done:   halt
`, iters)
}

// --- oracle 4: engine honesty ---------------------------------------

// checkHonesty runs every engine-driven machine twice — once on the
// wake-queue scheduler, once with an inert legacy component registered so
// the engine falls back to exhaustive per-cycle stepping — and demands
// bit-identical simulated observables. This generalizes the per-package
// NextEvent-honesty property tests to whole machines on arbitrary
// programs.
func checkHonesty(ct *counter, c *compiled) {
	pair := func(machine string, run func(legacy bool) (Snapshot, error)) {
		evented, err1 := run(false)
		exhaustive, err2 := run(true)
		if err1 != nil || err2 != nil {
			ct.fail(OracleHonesty, machine, fmt.Errorf("run errors: %v / %v", err1, err2))
			return
		}
		a, b := evented.Observables(), exhaustive.Observables()
		ct.check(OracleHonesty, machine, a == b, func() string {
			return fmt.Sprintf("wake-queue and exhaustive runs diverged:\n  wake-queue %+v\n  exhaustive %+v", a, b)
		})
	}

	pair("ttda", func(l bool) (Snapshot, error) { return runTTDA(c, 2, 4, l, 0, 0, false) })
	pair("vn", func(l bool) (Snapshot, error) { return runVN(c, 2, 4, !l) })
	pair("cmmp", func(l bool) (Snapshot, error) { return runCmmp(c, 2, l, 0) })
	pair("cmstar", func(l bool) (Snapshot, error) { return runCmstar(c, 8, l, 0) })
	pair("ultra", func(l bool) (Snapshot, error) { return runUltra(c, true, l, 0) })
	pair("hep", func(l bool) (Snapshot, error) { return runHEP(c, l, 0) })
}

// --- oracle 5: parallel-vs-sequential equivalence ---------------------

// parallelShardCounts are the shard counts the parallel oracle exercises
// against the sequential reference on every machine and seed.
var parallelShardCounts = []int{2, 4, 8}

// checkParallel runs every shardable machine once on the sequential engine
// and once per shard count on the conservative parallel kernel, demanding
// bit-identical simulated observables. Engine counters are excluded: the
// two kernels schedule differently by construction (the parallel engine
// ticks its net driver every cycle), but everything the simulated machine
// itself produced — results, cycle counts, statistics — must match exactly.
func checkParallel(ct *counter, c *compiled) {
	fan := func(machine string, run func(shards int) (Snapshot, error)) {
		seq, err := run(0)
		if err != nil {
			ct.fail(OracleParallel, machine, err)
			return
		}
		want := seq.Observables()
		for _, n := range parallelShardCounts {
			par, err := run(n)
			if err != nil {
				ct.fail(OracleParallel, fmt.Sprintf("%s/shards=%d", machine, n), err)
				continue
			}
			got := par.Observables()
			ct.checkAt(OracleParallel, fmt.Sprintf("%s/shards=%d", machine, n), want.Cycles, got == want, func() string {
				return fmt.Sprintf("parallel run diverged from sequential:\n  sequential %+v\n  parallel   %+v", want, got)
			})
		}
	}

	fan("ttda", func(n int) (Snapshot, error) { return runTTDA(c, 4, 4, false, n, 0, false) })
	fan("cmmp", func(n int) (Snapshot, error) { return runCmmp(c, 2, false, n) })
	fan("cmstar", func(n int) (Snapshot, error) { return runCmstar(c, 8, false, n) })
	fan("ultra", func(n int) (Snapshot, error) { return runUltra(c, true, false, n) })
	fan("hep", func(n int) (Snapshot, error) { return runHEP(c, false, n) })

	// Epoch-window crossings: the TTDA's ideal fabric declares a lookahead,
	// so the parallel kernel may run multi-tick windows (capped and
	// adaptive). Every combination must still be bit-identical to the
	// sequential reference.
	seq, err := runTTDA(c, 4, 4, false, 0, 0, false)
	if err != nil {
		ct.fail(OracleParallel, "ttda/windows", err)
		return
	}
	want := seq.Observables()
	for _, n := range []int{2, 4} {
		for _, win := range []int{4, -1} {
			name := fmt.Sprintf("ttda/shards=%d/window=%d", n, win)
			par, err := runTTDA(c, 4, 4, false, n, win, false)
			if err != nil {
				ct.fail(OracleParallel, name, err)
				continue
			}
			got := par.Observables()
			ct.checkAt(OracleParallel, name, want.Cycles, got == want, func() string {
				return fmt.Sprintf("windowed parallel run diverged from sequential:\n  sequential %+v\n  parallel   %+v", want, got)
			})
		}
	}
}

// --- oracle 6: compiled-plan equivalence -------------------------------

// checkCompiled pins the seed's shared execution plan to a private one.
// By the time it runs, the shared plan has served every other TTDA run of
// the seed. The first check demands that a machine on the shared plan and
// one whose NewMachine compiled its own agree on the FULL snapshot —
// results, cycles, machine statistics, and the engine's own counters — so
// a plan that some run had mutated would show here. The second crosses
// the shared plan with the conservative parallel kernel against the
// own-plan sequential reference: shard workers read the one plan
// concurrently, which the race detector checks under go test -race.
func checkCompiled(ct *counter, c *compiled) {
	own, err1 := runTTDA(c, 2, 4, false, 0, 0, true)
	shared, err2 := runTTDA(c, 2, 4, false, 0, 0, false)
	if err1 != nil || err2 != nil {
		ct.fail(OracleCompiled, "ttda", fmt.Errorf("run errors: %v / %v", err1, err2))
		return
	}
	ct.checkAt(OracleCompiled, "ttda", own.Cycles, own == shared, func() string {
		return fmt.Sprintf("shared-plan run diverged from own-plan run (full snapshot):\n  own plan    %+v\n  shared plan %+v", own, shared)
	})

	seq, err := runTTDA(c, 4, 4, false, 0, 0, true)
	if err != nil {
		ct.fail(OracleCompiled, "ttda/pes=4", err)
		return
	}
	want := seq.Observables()
	for _, n := range parallelShardCounts {
		name := fmt.Sprintf("ttda/shared-plan/shards=%d", n)
		par, err := runTTDA(c, 4, 4, false, n, 0, false)
		if err != nil {
			ct.fail(OracleCompiled, name, err)
			continue
		}
		got := par.Observables()
		ct.checkAt(OracleCompiled, name, want.Cycles, got == want, func() string {
			return fmt.Sprintf("shared-plan parallel run diverged from own-plan sequential:\n  sequential %+v\n  parallel   %+v", want, got)
		})
	}
}

// --- oracle 8: direct-execution equivalence ---------------------------

// directRun executes the program on the direct-execution oracle backend
// and returns its single integer result plus the firing count. It is a
// package variable so the harness-teeth test can doctor it; production
// code must never reassign it.
var directRun = func(c *compiled) (int64, uint64, error) {
	x := direct.New(c.prog)
	res, err := x.Run(c.args...)
	if err != nil {
		return 0, 0, err
	}
	if len(res) != 1 {
		return 0, 0, fmt.Errorf("direct: %d results", len(res))
	}
	v, err := res[0].AsInt()
	return v, x.Fired(), err
}

// checkDirect pins the direct-execution backend to the fleet: its answer
// must equal the workload's closed form (which the result oracle already
// ties to every machine, so agreement is transitive across the fleet) and
// its firing count must equal the reference interpreter's — the firing
// multiset of a dataflow graph is schedule-invariant, so the depth-first
// direct schedule and the breadth-first interpreter waves must fire
// exactly the same activity instances.
func checkDirect(ct *counter, c *compiled) {
	want := c.w.Expected()
	got, fired, err := directRun(c)
	if err != nil {
		ct.fail(OracleDirect, "direct", err)
		return
	}
	ct.check(OracleDirect, "direct", got == want, func() string {
		return fmt.Sprintf("direct backend got %d, want %d (%s)", got, want, c.w)
	})
	_, it, err := runInterp(c)
	if err != nil {
		ct.fail(OracleDirect, "direct/firings", err)
		return
	}
	ct.check(OracleDirect, "direct/firings", fired == it.Fired(), func() string {
		return fmt.Sprintf("direct backend fired %d activity instances, interpreter fired %d (%s)", fired, it.Fired(), c.w)
	})
}

// --- sweep -----------------------------------------------------------

// Sweep checks seeds [0, n) and aggregates.
func Sweep(n int) Report { return SweepOpts(n, 1) }

// SweepOpts is Sweep on the shared parallel sweep runner: seeds fan out
// across at most workers goroutines (<= 0 means GOMAXPROCS). Each seed's
// checks are fully independent — every machine is built fresh per run — and
// per-seed tallies are folded into the report in seed order after the
// barrier, so the report is identical at any worker count.
func SweepOpts(n, workers int) Report {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	per, _ := sweep.Run(seeds, func(_ sweep.Env, seed uint64) (*counter, error) {
		ct, _ := checkSeed(seed)
		return ct, nil
	}, sweep.Options{Workers: workers})
	r := Report{PerOracle: map[Oracle]int{}}
	for _, ct := range per {
		r.Programs++
		r.Checks += ct.checks
		for o, k := range ct.per {
			r.PerOracle[o] += k
		}
		r.Violations = append(r.Violations, ct.vs...)
	}
	return r
}

// Summary renders the report for humans.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d programs, %d checks", r.Programs, r.Checks)
	for _, o := range []Oracle{OracleResult, OracleDeterminism, OracleMetamorphic, OracleHonesty, OracleParallel, OracleCompiled, OracleCheckpoint, OracleDirect} {
		fmt.Fprintf(&b, ", %s=%d", o, r.PerOracle[o])
	}
	if len(r.Violations) == 0 {
		b.WriteString(" — all passed")
	} else {
		fmt.Fprintf(&b, " — %d VIOLATIONS:\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "%s\n", v)
		}
	}
	return b.String()
}
