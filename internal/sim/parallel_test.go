package sim

import (
	"runtime"
	"testing"
)

// The toy machine: N cells pass tokens around a ring through a serial
// fabric with a fixed latency. It exercises exactly the structure real
// machines use on the ParallelEngine — a serial fabric stepped before the
// shard phase, cells that defer cross-shard sends to a per-shard log, a
// commit hook draining logs in shard order — so sequential-vs-parallel
// parity here checks the engine's epoch protocol end to end (including
// idle-cycle skipping across the fabric latency gaps).

type ringSend struct {
	due Cycle
	dst int
	val int
	// tick is the production tick of a deferred send (shard log entries
	// only); the commit hook drains entries up to the commit tick, the
	// same prefix discipline real machines use under epoch windows.
	tick Cycle
}

type ringFabric struct {
	m        *ringMachine
	inflight []ringSend // kept sorted by due (appends are nondecreasing)
}

func (f *ringFabric) Step(now Cycle) {
	i := 0
	for ; i < len(f.inflight) && f.inflight[i].due <= now; i++ {
		s := f.inflight[i]
		f.m.deliver(s.dst, s.val)
	}
	f.inflight = f.inflight[:copy(f.inflight, f.inflight[i:])]
}

func (f *ringFabric) NextEvent(now Cycle) Cycle {
	if len(f.inflight) == 0 {
		return Never
	}
	if t := f.inflight[0].due; t > now {
		return t
	}
	return now
}

// ringCell passes one held token per step to its ring successor while its
// personal budget lasts; out of budget, arriving tokens park. Cells touch
// only their own state plus machine.send, which defers on a sharded
// machine — the shard-safety discipline real PEs follow.
type ringCell struct {
	m       *ringMachine
	id      int
	pending int // delivered this tick by the fabric, consumed at the next step
	tokens  int
	budget  int
	// chew is the number of shard-local work ticks a cell spends on each
	// received token before forwarding it — the clean stretches that let
	// an epoch window widen past one tick.
	chew     int
	chewLeft int
	steps    uint64
	passed   uint64
}

func (c *ringCell) Step(now Cycle) {
	c.steps++
	if c.pending > 0 {
		c.tokens += c.pending
		c.pending = 0
		if c.chew > 0 && c.budget > 0 {
			c.chewLeft = c.chew
		}
	}
	if c.chewLeft > 0 {
		c.chewLeft--
		return
	}
	if c.tokens > 0 && c.budget > 0 {
		c.tokens--
		c.budget--
		c.passed++
		c.m.send(c, (c.id+1)%len(c.m.cells), 1, now)
	}
}

func (c *ringCell) NextEvent(now Cycle) Cycle {
	if c.pending > 0 || c.chewLeft > 0 || (c.tokens > 0 && c.budget > 0) {
		return now
	}
	return Never
}

type ringShard struct {
	m     *ringMachine
	span  Span
	sends []ringSend // deferred cross-effects, drained at commit
}

func (s *ringShard) Step(now Cycle) {
	for i := s.span.Lo; i < s.span.Hi; i++ {
		c := s.m.cells[i]
		if c.NextEvent(now) <= now {
			c.Step(now)
		}
	}
}

// StepWindow implements WindowRunner: advance the shard's local timeline
// tick by tick, halting after any tick that deferred sends (see
// coreShard.StepWindow for the dirty-stop rationale).
func (s *ringShard) StepWindow(from, until Cycle, stepped []bool, base Cycle) (last, next Cycle, dirty bool, steps uint64) {
	t := from
	for {
		stepped[t-base] = true
		steps++
		last = t
		s.Step(t)
		if len(s.sends) > 0 {
			return last, Never, true, steps
		}
		nx := s.NextEvent(t + 1)
		if nx >= until {
			return last, nx, false, steps
		}
		t = nx
	}
}

func (s *ringShard) NextEvent(now Cycle) Cycle {
	next := Never
	for i := s.span.Lo; i < s.span.Hi; i++ {
		if t := s.m.cells[i].NextEvent(now); t < next {
			next = t
		}
	}
	return next
}

type ringMachine struct {
	cells   []*ringCell
	fabric  *ringFabric
	shards  []*ringShard
	shardOf []*ringShard
	eng     Driver
	peng    *ParallelEngine
	latency Cycle
}

func (m *ringMachine) send(c *ringCell, dst, val int, now Cycle) {
	if sh := m.shardOf[c.id]; sh != nil {
		sh.sends = append(sh.sends, ringSend{dst: dst, val: val, tick: now})
		return
	}
	m.fabric.inflight = append(m.fabric.inflight, ringSend{due: now + m.latency, dst: dst, val: val})
	m.eng.Wake(m.fabric, now+m.latency)
}

func (m *ringMachine) deliver(dst, val int) {
	c := m.cells[dst]
	c.pending += val
	if m.peng != nil {
		m.eng.Wake(m.shardOf[dst], m.eng.Now())
	} else {
		m.eng.Wake(c, m.eng.Now())
	}
}

func (m *ringMachine) commit(now Cycle) {
	for _, sh := range m.shards {
		n := 0
		for n < len(sh.sends) && sh.sends[n].tick <= now {
			n++
		}
		for _, s := range sh.sends[:n] {
			m.fabric.inflight = append(m.fabric.inflight, ringSend{due: now + m.latency, dst: s.dst, val: s.val})
			m.eng.Wake(m.fabric, now+m.latency)
		}
		sh.sends = sh.sends[:copy(sh.sends, sh.sends[n:])]
	}
}

func (m *ringMachine) quiet() bool {
	if len(m.fabric.inflight) > 0 {
		return false
	}
	for _, c := range m.cells {
		if c.pending > 0 || c.chewLeft > 0 || (c.tokens > 0 && c.budget > 0) {
			return false
		}
	}
	return true
}

// newRing builds the toy on a sequential engine (shards == 0) or a
// ParallelEngine with the given shard count.
func newRing(n, shards int, latency Cycle, budget int) *ringMachine {
	m := &ringMachine{latency: latency}
	m.fabric = &ringFabric{m: m}
	for i := 0; i < n; i++ {
		m.cells = append(m.cells, &ringCell{m: m, id: i, budget: budget})
	}
	m.shardOf = make([]*ringShard, n)
	if shards <= 0 {
		eng := NewEngine()
		eng.Register(m.fabric)
		for _, c := range m.cells {
			eng.Register(c)
		}
		m.eng = eng
		return m
	}
	peng := NewParallelEngine()
	peng.Register(m.fabric)
	for _, sp := range PlanShards(n, shards) {
		sh := &ringShard{m: m, span: sp}
		m.shards = append(m.shards, sh)
		for i := sp.Lo; i < sp.Hi; i++ {
			m.shardOf[i] = sh
		}
		peng.RegisterShard(sh)
	}
	peng.OnCommit(m.commit)
	m.eng = peng
	m.peng = peng
	return m
}

type ringResult struct {
	elapsed Cycle
	ok      bool
	passed  []uint64
	tokens  []int
}

func runRing(t *testing.T, shards int) ringResult {
	t.Helper()
	const n, latency, budget = 13, 5, 40
	m := newRing(n, shards, latency, budget)
	// Seed tokens unevenly so shards see skewed load.
	m.cells[0].tokens = 3
	m.cells[7].tokens = 1
	elapsed, ok := m.eng.Run(m.quiet, 100_000)
	res := ringResult{elapsed: elapsed, ok: ok}
	for _, c := range m.cells {
		res.passed = append(res.passed, c.passed)
		res.tokens = append(res.tokens, c.tokens+c.pending)
	}
	return res
}

func TestParallelEngineMatchesSequential(t *testing.T) {
	want := runRing(t, 0)
	if !want.ok {
		t.Fatalf("sequential reference did not quiesce (elapsed %d)", want.elapsed)
	}
	for _, shards := range []int{1, 2, 3, 4, 8, 16} {
		got := runRing(t, shards)
		if got.elapsed != want.elapsed || got.ok != want.ok {
			t.Errorf("shards=%d: elapsed %d ok %v, want %d %v", shards, got.elapsed, got.ok, want.elapsed, want.ok)
		}
		// Simulated observables must match exactly; Step-invocation counts
		// are scheduler detail (exhaustive fallback ticks differ) and are
		// deliberately not compared — the same split the conformance
		// snapshots make.
		for i := range want.passed {
			if got.passed[i] != want.passed[i] || got.tokens[i] != want.tokens[i] {
				t.Errorf("shards=%d cell %d: passed/tokens %d/%d, want %d/%d",
					shards, i, got.passed[i], got.tokens[i],
					want.passed[i], want.tokens[i])
			}
		}
	}
}

func TestParallelEngineSkipsIdleCycles(t *testing.T) {
	m := newRing(13, 4, 5, 40)
	m.cells[0].tokens = 1
	if _, ok := m.eng.Run(m.quiet, 100_000); !ok {
		t.Fatal("did not quiesce")
	}
	c := m.peng.Counters()
	// One token circulating through latency-5 hops leaves ~4 idle cycles
	// per hop; the engine must skip them, not tick through them.
	if c.CyclesSkipped == 0 {
		t.Fatalf("parallel engine skipped no cycles: %+v", c)
	}
}

func TestParallelEngineWorkerSteps(t *testing.T) {
	m := newRing(12, 4, 2, 40)
	for i := range m.cells {
		m.cells[i].tokens = 1
	}
	if _, ok := m.eng.Run(m.quiet, 100_000); !ok {
		t.Fatal("did not quiesce")
	}
	ws := m.peng.WorkerSteps()
	if len(ws) != 4 {
		t.Fatalf("want 4 per-shard counters, got %v", ws)
	}
	for _, w := range ws {
		if w == 0 {
			t.Fatalf("a shard executed zero steps: %v", ws)
		}
	}
}

// goroutineProbe is an always-due shard runner that records the largest
// goroutine count it observes while stepping.
type goroutineProbe struct{ max *int }

func (p goroutineProbe) Step(Cycle) {
	if n := runtime.NumGoroutine(); n > *p.max {
		*p.max = n
	}
}

func (goroutineProbe) NextEvent(now Cycle) Cycle { return now }

func (p goroutineProbe) StepWindow(from, until Cycle, stepped []bool, base Cycle) (last, next Cycle, dirty bool, steps uint64) {
	for t := from; t < until; t++ {
		stepped[t-base] = true
		p.Step(t)
		steps++
	}
	return until - 1, until, false, steps
}

// TestShardedRunStartsNoGoroutines pins that shard runners step on the
// calling goroutine, per-tick and windowed alike, even when the runtime
// offers more threads than there are shards.
func TestShardedRunStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, windowed := range []bool{false, true} {
		e := NewParallelEngine()
		seen := 0
		for k := 0; k < 4; k++ {
			e.RegisterShard(goroutineProbe{max: &seen})
		}
		if windowed {
			e.EnableWindows(8, 0)
		}
		before := runtime.NumGoroutine()
		if _, ok := e.Run(func() bool { return false }, 200); ok {
			t.Fatalf("windowed=%v: a never-done run reported done", windowed)
		}
		if seen == 0 {
			t.Fatalf("windowed=%v: no shard runner stepped", windowed)
		}
		if seen > before {
			t.Errorf("windowed=%v: %d goroutines while shards stepped, %d before Run", windowed, seen, before)
		}
		if w, _ := e.WindowStats(); windowed != (w > 0) {
			t.Errorf("windowed=%v: %d windows ran", windowed, w)
		}
		for k, s := range e.WorkerSteps() {
			if s != 200 {
				t.Errorf("windowed=%v: shard %d stepped %d ticks, want 200", windowed, k, s)
			}
		}
	}
}

// inertAware is the minimal EventAware component for registration tests.
type inertAware struct{}

func (inertAware) Step(Cycle)            {}
func (inertAware) NextEvent(Cycle) Cycle { return Never }

func TestParallelEngineRegisterOrderEnforced(t *testing.T) {
	e := NewParallelEngine()
	e.RegisterShard(&inertAware{})
	defer func() {
		if recover() == nil {
			t.Fatal("serial Register after RegisterShard should panic")
		}
	}()
	e.Register(&inertAware{})
}

func TestParallelEngineRejectsNonEventAware(t *testing.T) {
	e := NewParallelEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("registering a non-EventAware component should panic")
		}
	}()
	e.Register(ComponentFunc(func(Cycle) {}))
}
