package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
)

// runBoth compiles src, runs it on the reference interpreter and on a
// machine with the given config, and requires identical single results.
func runBoth(t *testing.T, cfg Config, src string, args ...token.Value) token.Value {
	t.Helper()
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	runArgs, err := id.EntryArgs(prog, args)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.NewInterp(prog).Run(runArgs...)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	m := NewMachine(cfg, prog)
	got, err := m.Run(5_000_000, runArgs...)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("machine returned %d results, interpreter %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("result %d: machine %s, interpreter %s", i, got[i], want[i])
		}
	}
	if len(got) != 1 {
		t.Fatalf("expected single result, got %v", got)
	}
	return got[0]
}

func TestMachineArithmeticSinglePE(t *testing.T) {
	got := runBoth(t, Config{PEs: 1}, "def main(a, b) = (a + b) * (a - b);", token.Int(9), token.Int(4))
	if got.I != 65 {
		t.Fatalf("got %s", got)
	}
}

func TestMachineMatchesInterpreterAcrossPECounts(t *testing.T) {
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	for _, pes := range []int{1, 2, 4, 8} {
		got := runBoth(t, Config{PEs: pes}, src, token.Int(12))
		if got.I != 144 {
			t.Fatalf("PEs=%d: fib(12) = %s", pes, got)
		}
	}
}

func TestMachineLoop(t *testing.T) {
	src := `
def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);
`
	for _, pes := range []int{1, 3, 8} {
		got := runBoth(t, Config{PEs: pes}, src, token.Int(100))
		if got.I != 5050 {
			t.Fatalf("PEs=%d: sum = %s", pes, got)
		}
	}
}

func TestMachineTrapezoid(t *testing.T) {
	src := `
def f(x) = x * x;
def main(a, b, n) =
  { h = (b - a) / n;
    (initial s <- (f(a) + f(b)) / 2; x <- a + h
     for i from 1 to n - 1 do
       new x <- x + h;
       new s <- s + f(x)
     return s) * h };
`
	got := runBoth(t, Config{PEs: 4}, src, token.Float(0), token.Float(1), token.Float(50))
	if math.Abs(got.F-1.0/3.0) > 1e-3 {
		t.Fatalf("trapezoid = %v", got.F)
	}
}

func TestMachineIStructures(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i * 2;
           new z <- z
         return 0);
    (initial s <- p
     for i from 0 to n - 1 do
       new s <- s + a[i]
     return s) };
`
	for _, pes := range []int{1, 4} {
		got := runBoth(t, Config{PEs: pes}, src, token.Int(10))
		if got.I != 90 {
			t.Fatalf("PEs=%d: sum = %s", pes, got)
		}
	}
}

func TestMachineDeterministicAcrossLatencies(t *testing.T) {
	// Dataflow graphs are determinate: the answer must not depend on
	// communication timing.
	src := `
def f(x) = if x % 2 == 0 then x / 2 else 3 * x + 1;
def steps(n) =
  (initial x <- n; c <- 0
   for i from 1 to 1000 do
     new x <- if x == 1 then 1 else f(x);
     new c <- if x == 1 then c else c + 1
   return c);
def main(n) = steps(n);
`
	var first token.Value
	for i, lat := range []sim.Cycle{1, 5, 20} {
		got := runBoth(t, Config{PEs: 4, NetLatency: lat}, src, token.Int(27))
		if i == 0 {
			first = got
		} else if !got.Equal(first) {
			t.Fatalf("latency %d changed the answer: %s vs %s", lat, got, first)
		}
	}
	if first.I != 111 {
		t.Fatalf("collatz steps(27) = %s, want 111", first)
	}
}

func TestMachineOnMeshNetwork(t *testing.T) {
	mesh := network.NewMesh(2, 2, false, 16)
	src := `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`
	got := runBoth(t, Config{PEs: 4, Net: mesh}, src, token.Int(30))
	if got.I != 465 {
		t.Fatalf("got %s", got)
	}
	if mesh.Stats().Delivered.Value() == 0 {
		t.Fatal("no traffic crossed the mesh")
	}
}

func TestMachineOnHypercubeNetwork(t *testing.T) {
	hc := network.NewHypercube(3, 16)
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	got := runBoth(t, Config{PEs: 8, Net: hc}, src, token.Int(10))
	if got.I != 55 {
		t.Fatalf("got %s", got)
	}
}

func TestMachineStatsPlausible(t *testing.T) {
	prog, err := id.Compile(`def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	if _, err := m.Run(1_000_000, token.Int(200)); err != nil {
		t.Fatal(err)
	}
	s := m.Summarize()
	if s.Fired == 0 || s.Cycles == 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	if s.ALUUtilization <= 0 || s.ALUUtilization > 1 {
		t.Fatalf("ALU utilization %v out of range", s.ALUUtilization)
	}
	if s.Matches == 0 {
		t.Fatal("two-operand instructions must produce matches")
	}
	if s.TokensD2 == 0 {
		t.Fatal("loop entry must generate d=2 (manager) traffic")
	}
	if s.MatchStoreMax == 0 {
		t.Fatal("waiting-matching store never held a token?")
	}
	if !strings.Contains(s.String(), "ALU utilization") {
		t.Fatal("summary text missing fields")
	}
}

func TestMachineFiredMatchesInterpreter(t *testing.T) {
	src := `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	it := graph.NewInterp(prog)
	if _, err := it.Run(token.Int(50)); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 2}, prog)
	if _, err := m.Run(1_000_000, token.Int(50)); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Summarize().Fired, it.Fired(); got != want {
		t.Fatalf("machine fired %d instructions, interpreter %d", got, want)
	}
}

func TestMachineDeadlockDetected(t *testing.T) {
	// A fetch with no write deadlocks; the machine must report it rather
	// than spin or succeed.
	b := graph.NewBuilder("dead")
	bb := b.NewBlock("main", 1)
	alloc := bb.Op(graph.OpAllocate, "")
	addr := bb.OpLit(graph.OpIAddr, token.Int(0), 1, "")
	fetch := bb.Op(graph.OpFetch, "")
	ret := bb.Op(graph.OpReturn, "")
	bb.Connect(bb.Entry(0), alloc, 0)
	bb.Connect(alloc, addr, 0)
	bb.Connect(addr, fetch, 0)
	bb.Connect(fetch, ret, 0)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 2}, prog)
	_, err = m.Run(100_000, token.Int(4))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestMachineStrandedTokensDetected(t *testing.T) {
	// An instruction that receives only one of its two operands strands a
	// token in the waiting-matching store.
	b := graph.NewBuilder("stranded")
	bb := b.NewBlock("main", 1)
	add := bb.Op(graph.OpAdd, "never fires")
	ret := bb.Op(graph.OpReturn, "")
	bb.Connect(bb.Entry(0), add, 0) // port 1 never arrives
	bb.Connect(add, ret, 0)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1}, prog)
	_, err = m.Run(10_000, token.Int(1))
	if err == nil || !strings.Contains(err.Error(), "unmatched") {
		t.Fatalf("want unmatched-token error, got %v", err)
	}
}

func TestMachineWrongArgCount(t *testing.T) {
	prog, err := id.Compile("def main(a, b) = a + b;")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1}, prog)
	if _, err := m.Run(1000, token.Int(1)); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestMachineCycleLimit(t *testing.T) {
	prog, err := id.Compile(`def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1}, prog)
	if _, err := m.Run(5, token.Int(1000)); err == nil || !strings.Contains(err.Error(), "did not finish") {
		t.Fatalf("want cycle-limit error, got %v", err)
	}
}

func TestMatchCapacityStalls(t *testing.T) {
	src := `
def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1, MatchCapacity: 1}, prog)
	if _, err := m.Run(2_000_000, token.Int(50)); err != nil {
		t.Fatal(err)
	}
	st := m.PEStats()[0]
	if st.Overflows.Value() == 0 || st.Stalls.Value() == 0 {
		t.Fatalf("a one-entry waiting-matching store must overflow under loop traffic (overflows=%d stalls=%d)",
			st.Overflows.Value(), st.Stalls.Value())
	}
	// The overflow penalty must cost cycles relative to an unbounded store.
	m2 := NewMachine(Config{PEs: 1}, prog)
	if _, err := m2.Run(2_000_000, token.Int(50)); err != nil {
		t.Fatal(err)
	}
	if m.Summarize().Cycles <= m2.Summarize().Cycles {
		t.Fatalf("overflow store should slow the machine: %d vs %d cycles",
			m.Summarize().Cycles, m2.Summarize().Cycles)
	}
}

func TestMoreDataflowParallelismWithMorePEs(t *testing.T) {
	// The independent-iteration fill loop must speed up with PEs: the
	// defining latency-hiding property of the architecture.
	src := `
def main(n) =
  { a = array(n);
    fill = (initial z <- 0
            for i from 0 to n - 1 do
              a[i] <- i * i + i;
              new z <- z
            return 0);
    (initial s <- fill
     for i from 0 to n - 1 do
       new s <- s + a[i]
     return s) };
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[int]uint64{}
	for _, pes := range []int{1, 8} {
		m := NewMachine(Config{PEs: pes}, prog)
		res, err := m.Run(10_000_000, token.Int(64))
		if err != nil {
			t.Fatalf("PEs=%d: %v", pes, err)
		}
		if res[0].I != 64*63/2+ // sum i
			(63*64*127)/6 { // sum i^2
			t.Fatalf("PEs=%d: wrong sum %s", pes, res[0])
		}
		cycles[pes] = m.Summarize().Cycles
	}
	if cycles[8] >= cycles[1] {
		t.Fatalf("8 PEs (%d cycles) not faster than 1 PE (%d cycles)", cycles[8], cycles[1])
	}
}

func TestTracerRecordsMachineEvents(t *testing.T) {
	prog, err := id.Compile(`
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i;
           new z <- z
         return 0);
    a[1] + f };
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(64)
	m := NewMachine(Config{PEs: 2, Trace: tr}, prog)
	if _, err := m.Run(1_000_000, token.Int(4)); err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("tracer saw nothing")
	}
	kinds := map[TraceKind]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	text := tr.String()
	for _, k := range []TraceKind{TraceResult} {
		if kinds[k] == 0 {
			t.Fatalf("no %s events in trace:\n%s", k, text)
		}
	}
	if !strings.Contains(text, "result") {
		t.Fatalf("dump missing result event:\n%s", text)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.record(TraceEvent{Cycle: simCycleAt(i), Kind: TraceFire})
	}
	ev := tr.Events()
	if len(ev) != 4 || tr.Total() != 10 {
		t.Fatalf("retained %d of %d", len(ev), tr.Total())
	}
	for i, e := range ev {
		if e.Cycle != simCycleAt(6+i) {
			t.Fatalf("ring out of order: %v", ev)
		}
	}
}

func simCycleAt(i int) sim.Cycle { return sim.Cycle(i) }

func TestContextReclamation(t *testing.T) {
	// Every invocation record must be reclaimed by the end of a clean run,
	// and the peak live count must be far below the total allocated —
	// otherwise the "unbounded namespace, finite machine" mapping leaks.
	src := `
def main(n) =
  (initial total <- 0
   for i from 1 to n do
     new total <- total + (initial s <- 0
                           for j from 1 to 8 do
                             new s <- s + j
                           return s)
   return total);
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	if _, err := m.Run(10_000_000, token.Int(50)); err != nil {
		t.Fatal(err)
	}
	s := m.Summarize()
	if s.CtxAllocated < 50 {
		t.Fatalf("expected >= 50 inner-loop contexts, got %d", s.CtxAllocated)
	}
	if s.CtxFreed != s.CtxAllocated {
		t.Fatalf("leaked contexts: allocated %d, freed %d", s.CtxAllocated, s.CtxFreed)
	}
	if uint64(s.CtxPeak) >= s.CtxAllocated/2 {
		t.Fatalf("peak live contexts %d too close to total %d — reclamation not helping", s.CtxPeak, s.CtxAllocated)
	}
}

func TestContextReclamationNonStrict(t *testing.T) {
	// append returns before its copy loop finishes (non-strict): records
	// must still be reclaimed exactly once, with no premature frees.
	src := `
def main(n) =
  { a = array(n);
    f = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i;
           new z <- z
         return 0);
    b = append(a, 1, 99);
    (initial s <- f
     for i from 0 to n - 1 do
       new s <- s + b[i]
     return s) };
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 4}, prog)
	res, err := m.Run(10_000_000, token.Int(8))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].I != 0+99+2+3+4+5+6+7 {
		t.Fatalf("got %s", res[0])
	}
	s := m.Summarize()
	if s.CtxFreed != s.CtxAllocated {
		t.Fatalf("allocated %d, freed %d", s.CtxAllocated, s.CtxFreed)
	}
}

// TestInvalidProgramFailsAtRun pins NewMachine's handling of a program
// that does not compile: construction succeeds, and Run and a checkpoint
// restore both report the compile error instead of panicking.
func TestInvalidProgramFailsAtRun(t *testing.T) {
	prog := &graph.Program{Name: "empty"}
	want := prog.Validate()
	if want == nil {
		t.Fatal("an empty program validated")
	}
	m := NewMachine(Config{PEs: 2}, prog)
	if _, err := m.Run(1000); err == nil || err.Error() != want.Error() {
		t.Fatalf("Run: got %v, want %v", err, want)
	}
	if err := m.LoadState(sim.NewDec(nil)); err == nil || err.Error() != want.Error() {
		t.Fatalf("LoadState: got %v, want %v", err, want)
	}
}

// TestNextWorkNeverIffQueuesEmpty pins the property sweepPEsQ relies on to
// poll each PE once per side of its step: nextWork answers sim.Never
// exactly when every stage queue is empty, whatever the busy timers say.
func TestNextWorkNeverIffQueuesEmpty(t *testing.T) {
	prog, err := id.Compile(`def main(x) = x + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1}, prog)
	rows := []struct {
		name  string
		empty bool
		fill  func(pe *PE)
	}{
		{"no queued work", true, func(*PE) {}},
		{"input", false, func(pe *PE) { *pe.input.Slot() = token.Token{} }},
		{"awaiting fetch", false, func(pe *PE) { pe.ready.Slot() }},
		{"operand queue", false, func(pe *PE) { pe.ready.Slot(); pe.aluN = 1 }},
		{"operand queue full", false, func(pe *PE) {
			for i := 0; i <= aluQueueDepth; i++ {
				pe.ready.Slot()
			}
			pe.aluN = aluQueueDepth
		}},
		{"output", false, func(pe *PE) { pe.outQ.Slot() }},
		{"network retry", false, func(pe *PE) { pe.netRetry.Push(&network.Packet{}) }},
		{"controller", false, func(pe *PE) { pe.ctrlQ.Push(ctrlRequest{}) }},
	}
	timers := [][3]sim.Cycle{{0, 0, 0}, {1000, 1000, 1000}, {1000, 0, 1000}, {0, 1000, 0}}
	for _, row := range rows {
		for _, busy := range timers {
			for _, now := range []sim.Cycle{0, 10, 999, 5000} {
				pe := newPE(m, 0)
				row.fill(pe)
				pe.aluBusyUntil, pe.ctrlBusyUntil, pe.matchBusyUntil = busy[0], busy[1], busy[2]
				if got := pe.nextWork(now); (got == sim.Never) != row.empty {
					t.Errorf("%s, busy until %v, now %d: nextWork %d, want never = %v", row.name, busy, now, got, row.empty)
				}
			}
		}
	}
}

// TestISCellLimitCapsAt32Bits pins the allocator ceiling around 2³² cells.
// ISCellsPerPE × PEs computed in 32 bits wrapped: 65,536 PEs got a limit
// of 0 and 65,537 PEs a limit of 65,536.
func TestISCellLimitCapsAt32Bits(t *testing.T) {
	for _, tc := range []struct {
		pes  int
		want uint32
	}{
		{1, 1 << 16},
		{4, 1 << 18},
		{65535, 65535 << 16},
		{65536, math.MaxUint32},
		{65537, math.MaxUint32},
		{1 << 20, math.MaxUint32},
	} {
		if got := isCellLimit(tc.pes); got != tc.want {
			t.Errorf("isCellLimit(%d) = %d, want %d", tc.pes, got, tc.want)
		}
	}
	// At the cap the bump pointer stops instead of wrapping.
	prog, err := id.Compile(`def main(x) = x;`)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(Config{PEs: 1}, prog)
	m.isLimit, m.nextAddr = math.MaxUint32, math.MaxUint32-3
	if base, err := m.allocate(3); err != nil || base != math.MaxUint32-3 {
		t.Fatalf("allocate(3) below the cap = %d, %v", base, err)
	}
	if _, err := m.allocate(1); err == nil || m.nextAddr != math.MaxUint32 {
		t.Fatalf("allocate(1) at the cap: err %v, bump pointer %d", err, m.nextAddr)
	}
}
