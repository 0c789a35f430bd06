package emulator

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/id"
	"repro/internal/token"
)

// runBoth compiles src, runs it on the reference interpreter and the
// emulator, and requires matching single results.
func runBoth(t *testing.T, cfg Config, src string, args ...token.Value) (token.Value, *Facility) {
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
	f := New(cfg, prog)
	got, err := f.Run(runArgs...)
	if err != nil {
		t.Fatalf("emulator: %v", err)
	}
	if len(got) != 1 || len(want) != 1 || !got[0].Equal(want[0]) {
		t.Fatalf("emulator %v, interpreter %v", got, want)
	}
	return got[0], f
}

func TestEmulatorArithmetic(t *testing.T) {
	got, _ := runBoth(t, Config{Dim: 3}, "def main(a, b) = (a + b) * (a - b);", token.Int(9), token.Int(4))
	if got.I != 65 {
		t.Fatalf("got %s", got)
	}
}

func TestEmulatorFibonacci(t *testing.T) {
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	got, f := runBoth(t, Config{Dim: 5}, src, token.Int(14))
	if got.I != 377 {
		t.Fatalf("fib(14) = %s", got)
	}
	if f.Hops.Load() == 0 {
		t.Fatal("no messages crossed switch modules — routing untested")
	}
}

func TestEmulatorTrapezoid(t *testing.T) {
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
	got, _ := runBoth(t, Config{Dim: 4}, src, token.Float(0), token.Float(1), token.Float(64))
	if math.Abs(got.F-1.0/3.0) > 1e-3 {
		t.Fatalf("trapezoid = %v", got.F)
	}
}

func TestEmulatorIStructures(t *testing.T) {
	src := `
def main(n) =
  { a = array(n);
    p = (initial z <- 0
         for i from 0 to n - 1 do
           a[i] <- i * 3;
           new z <- z
         return 0);
    (initial s <- p
     for i from 0 to n - 1 do
       new s <- s + a[i]
     return s) };
`
	got, _ := runBoth(t, Config{Dim: 4}, src, token.Int(20))
	if got.I != 570 {
		t.Fatalf("sum = %s", got)
	}
}

func TestEmulatorAgreesWithCoreMachine(t *testing.T) {
	// The two prongs of Figure 3-1 must agree on answers.
	src := `
def f(x) = if x % 2 == 0 then x / 2 else 3 * x + 1;
def main(n) =
  (initial x <- n; c <- 0
   for i from 1 to 200 do
     new x <- if x == 1 then 1 else f(x);
     new c <- if x == 1 then c else c + 1
   return c);
`
	got, _ := runBoth(t, Config{Dim: 3}, src, token.Int(97))
	if got.I != 118 {
		t.Fatalf("collatz(97) = %s, want 118", got)
	}
}

func TestEmulatorSpreadsWork(t *testing.T) {
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Dim: 4}, prog)
	if _, err := f.Run(token.Int(15)); err != nil {
		t.Fatal(err)
	}
	busyNodes := 0
	for i := 0; i < f.NumNodes(); i++ {
		if f.NodeProcessed(i) > 0 {
			busyNodes++
		}
	}
	if busyNodes < f.NumNodes()/2 {
		t.Fatalf("only %d of %d nodes did work", busyNodes, f.NumNodes())
	}
}

// TestEmulatorSurvivesLinkFaults runs fib(13) on an intact cube and on
// one with dead links, and pins what E11 reports: the answer, the firing
// count (the interpreter's), the originating messages, Messages − Hops,
// which are the same on both cubes because re-routing adds forwarding
// hops only, and the detour, which is zero on the intact cube and
// positive on the damaged one.
func TestEmulatorSurvivesLinkFaults(t *testing.T) {
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	it := graph.NewInterp(prog)
	if _, err := it.Run(token.Int(13)); err != nil {
		t.Fatal(err)
	}
	intact := New(Config{Dim: 4}, prog)
	wounded := New(Config{Dim: 4}, prog)
	// Injure the cube before the run: several dead links, still connected.
	wounded.KillLink(0, 0)
	wounded.KillLink(5, 2)
	wounded.KillLink(9, 3)
	originated, detour := map[string]uint64{}, map[string]uint64{}
	for name, f := range map[string]*Facility{"intact": intact, "damaged": wounded} {
		got, err := f.Run(token.Int(13))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got[0].I != 233 {
			t.Fatalf("%s: fib(13) = %s", name, got[0])
		}
		if f.Fired.Load() != it.Fired() {
			t.Errorf("%s: fired %d, interpreter %d", name, f.Fired.Load(), it.Fired())
		}
		originated[name] = f.Messages.Load() - f.Hops.Load()
		detour[name] = f.Detour()
	}
	if originated["intact"] != originated["damaged"] {
		t.Errorf("messages − hops: intact %d, damaged %d", originated["intact"], originated["damaged"])
	}
	if detour["intact"] != 0 || detour["damaged"] == 0 {
		t.Errorf("detour: intact %d (want 0), damaged %d (want > 0)", detour["intact"], detour["damaged"])
	}
}

func TestEmulatorPartitionedSubMachine(t *testing.T) {
	src := `def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Dim: 3}, prog)
	part := make([]int, 8)
	for i := range part {
		part[i] = i >> 2 // two 4-node machines
	}
	f.Partition(part)
	got, err := f.RunPartition(1, token.Int(40))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I != 820 {
		t.Fatalf("sum = %s", got[0])
	}
	// Nodes outside partition 1 must have processed nothing.
	for i := 0; i < 4; i++ {
		if f.NodeProcessed(i) != 0 {
			t.Fatalf("node %d outside the partition processed %d messages", i, f.NodeProcessed(i))
		}
	}
}

func TestEmulatorDetectsDeadlock(t *testing.T) {
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
	f := New(Config{Dim: 2}, prog)
	_, err = f.Run(token.Int(4))
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestEmulatorWrongArity(t *testing.T) {
	prog, err := id.Compile("def main(a, b) = a + b;")
	if err != nil {
		t.Fatal(err)
	}
	f := New(Config{Dim: 2}, prog)
	if _, err := f.Run(token.Int(1)); err == nil {
		t.Fatal("wrong arity must error")
	}
}

func TestEmulatorMidRunFaultInjection(t *testing.T) {
	// Kill links WHILE the program runs — the paper's "simple error
	// recovery under the control of a microcode task". The answer must
	// survive re-routing that happens concurrently with traffic.
	src := `
def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
def main(n) = fib(n);
`
	prog, err := id.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		f := New(Config{Dim: 4}, prog)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// inject faults as soon as traffic is flowing
			for f.Messages.Load() < 100 {
			}
			f.KillLink(0, 1)
			f.KillLink(9, 3)
		}()
		got, err := f.Run(token.Int(16))
		<-done
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got[0].I != 987 {
			t.Fatalf("trial %d: fib(16) = %s after mid-run faults", trial, got[0])
		}
	}
}

func TestEmulatorConcurrentFacilities(t *testing.T) {
	// Several independent facilities running at once, each on its own
	// goroutine, must not interfere.
	prog, err := id.Compile(`def main(n) = (initial s <- 0 for i from 1 to n do new s <- s + i return s);`)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		n   int64
		val int64
		err error
	}
	ch := make(chan res, 8)
	for k := int64(1); k <= 8; k++ {
		k := k
		go func() {
			f := New(Config{Dim: 3}, prog)
			out, err := f.Run(token.Int(k * 10))
			if err != nil {
				ch <- res{n: k, err: err}
				return
			}
			ch <- res{n: k, val: out[0].I}
		}()
	}
	for i := 0; i < 8; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("facility %d: %v", r.n, r.err)
		}
		n := r.n * 10
		if r.val != n*(n+1)/2 {
			t.Fatalf("facility %d computed %d", r.n, r.val)
		}
	}
}
