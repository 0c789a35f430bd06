package sim

import (
	"bytes"
	"slices"
	"testing"
)

// beacon fires work every `period` cycles for `count` pulses, tracking the
// cycles at which it was stepped with work available.
type beacon struct {
	period, count Cycle
	fired         []Cycle
	stepped       Cycle // total Step calls
}

func (p *beacon) Step(now Cycle) {
	p.stepped++
	if Cycle(len(p.fired)) < p.count && now%p.period == 0 {
		p.fired = append(p.fired, now)
	}
}

func (p *beacon) NextEvent(now Cycle) Cycle {
	if Cycle(len(p.fired)) >= p.count {
		return Never
	}
	if now%p.period == 0 {
		return now
	}
	return now + (p.period - now%p.period)
}

// TestEngineMatchesScheduler pins the core contract: an Engine run and an
// exhaustive Scheduler run produce identical elapsed cycles and identical
// event times, while the Engine steps far fewer times.
func TestEngineMatchesScheduler(t *testing.T) {
	mk := func() *beacon { return &beacon{period: 100, count: 5} }

	exh := mk()
	sched := NewScheduler()
	sched.Register(exh)
	exhElapsed, ok := sched.Run(func() bool { return Cycle(len(exh.fired)) >= exh.count }, 10_000)
	if !ok {
		t.Fatal("scheduler run did not finish")
	}

	ev := mk()
	eng := NewEngine()
	eng.Register(ev)
	evElapsed, ok := eng.Run(func() bool { return Cycle(len(ev.fired)) >= ev.count }, 10_000)
	if !ok {
		t.Fatal("engine run did not finish")
	}

	if exhElapsed != evElapsed {
		t.Fatalf("elapsed diverged: exhaustive %d, evented %d", exhElapsed, evElapsed)
	}
	if len(exh.fired) != len(ev.fired) {
		t.Fatalf("fire counts diverged: %v vs %v", exh.fired, ev.fired)
	}
	for i := range exh.fired {
		if exh.fired[i] != ev.fired[i] {
			t.Fatalf("fire %d diverged: %d vs %d", i, exh.fired[i], ev.fired[i])
		}
	}
	if ev.stepped >= exh.stepped/10 {
		t.Fatalf("engine should skip the dead cycles: %d steps vs exhaustive %d", ev.stepped, exh.stepped)
	}
}

// TestEngineLimit pins limit semantics: a machine that never finishes
// reports elapsed == limit and ok == false, even when every component
// reports Never (the jump clamps to the limit).
func TestEngineLimit(t *testing.T) {
	idle := &beacon{period: 1, count: 0} // immediately done firing: Never
	e := NewEngine()
	e.Register(idle)
	elapsed, ok := e.Run(func() bool { return false }, 500)
	if ok || elapsed != 500 {
		t.Fatalf("elapsed %d ok %v, want 500 false", elapsed, ok)
	}
}

// TestEngineBusyHorizon: with all components reporting Never but a busy
// horizon ahead, the jump lands on the horizon, where done can first hold.
func TestEngineBusyHorizon(t *testing.T) {
	idle := &beacon{period: 1, count: 0}
	e := NewEngine()
	e.Register(idle)
	e.NoteBusy(300)
	elapsed, ok := e.Run(func() bool { return e.Now() >= 300 }, 10_000)
	if !ok || elapsed != 300 {
		t.Fatalf("elapsed %d ok %v, want 300 true", elapsed, ok)
	}
}

// TestEngineStride pins the Connection Machine sequencer semantics: each
// tick costs a full word time.
func TestEngineStride(t *testing.T) {
	p := &beacon{period: 1, count: 3}
	e := NewEngine()
	e.SetStride(16)
	e.Register(p)
	elapsed, ok := e.Run(func() bool { return Cycle(len(p.fired)) >= 3 }, 1_000)
	if !ok || elapsed != 48 {
		t.Fatalf("elapsed %d ok %v, want 48 true", elapsed, ok)
	}
}

// TestEngineAdvance: out-of-run time warps (SIMD compute instructions)
// move Now without stepping components.
func TestEngineAdvance(t *testing.T) {
	p := &beacon{period: 1, count: 0}
	e := NewEngine()
	e.Register(p)
	e.Advance(64)
	if e.Now() != 64 {
		t.Fatalf("now %d, want 64", e.Now())
	}
	if p.stepped != 0 {
		t.Fatal("Advance must not step components")
	}
}

// settleProbe records Settle calls.
type settleProbe struct {
	beacon
	settledThrough Cycle
}

func (s *settleProbe) Settle(through Cycle) { s.settledThrough = through }

// TestEngineSettlesOnExit: Run must settle statistics through the final
// cycle on both the success and the limit path.
func TestEngineSettlesOnExit(t *testing.T) {
	s := &settleProbe{beacon: beacon{period: 50, count: 2}}
	e := NewEngine()
	e.Register(s)
	elapsed, ok := e.Run(func() bool { return len(s.fired) >= 2 }, 10_000)
	if !ok {
		t.Fatal("did not finish")
	}
	if s.settledThrough != elapsed {
		t.Fatalf("settled through %d, want %d", s.settledThrough, elapsed)
	}
}

// sleeper parks itself until an external Wake delivers work: its NextEvent
// is Never while the inbox is empty, so only the wake-queue can revive it.
type sleeper struct {
	inbox   []Cycle // cycles work was handed over
	handled []Cycle // cycles work was processed
	stepped Cycle
	waker   Waker
}

func (s *sleeper) Attach(w Waker) { s.waker = w }

func (s *sleeper) Step(now Cycle) {
	s.stepped++
	if len(s.inbox) > 0 {
		s.handled = append(s.handled, now)
		s.inbox = s.inbox[1:]
	}
}

func (s *sleeper) NextEvent(now Cycle) Cycle {
	if len(s.inbox) == 0 {
		return Never
	}
	return now
}

// feeder hands the sleeper one item at fixed times, waking it through the
// engine exactly as a memory hands a core its completed load.
type feeder struct {
	times []Cycle
	dst   *sleeper
	waker Waker
}

func (f *feeder) Attach(w Waker) { f.waker = w }

func (f *feeder) Step(now Cycle) {
	for len(f.times) > 0 && f.times[0] <= now {
		f.times = f.times[:copy(f.times, f.times[1:])]
		f.dst.inbox = append(f.dst.inbox, now)
		f.waker.Wake(f.dst, now)
	}
}

func (f *feeder) NextEvent(now Cycle) Cycle {
	if len(f.times) == 0 {
		return Never
	}
	if t := f.times[0]; t > now {
		return t
	}
	return now
}

// TestEngineWakeRevivesParkedComponent pins the Wake API: a component
// whose NextEvent answered Never is revived by an external Wake, steps at
// exactly the wake cycle, and costs zero steps while parked.
func TestEngineWakeRevivesParkedComponent(t *testing.T) {
	dst := &sleeper{}
	src := &feeder{times: []Cycle{40, 41, 900}, dst: dst}
	e := NewEngine()
	e.Register(src)
	e.Register(dst)
	_, ok := e.Run(func() bool { return len(dst.handled) >= 3 }, 10_000)
	if !ok {
		t.Fatal("run did not finish")
	}
	want := []Cycle{40, 41, 900}
	for i, w := range want {
		if dst.handled[i] != w {
			t.Fatalf("handled[%d] = %d, want %d (all: %v)", i, dst.handled[i], w, dst.handled)
		}
	}
	if dst.stepped > 4 {
		t.Fatalf("parked component stepped %d times; wake-queue should bound it near 3", dst.stepped)
	}
	c := e.Counters()
	if c.WakesEnqueued == 0 {
		t.Fatal("no wakes were counted")
	}
	if c.CyclesSkipped == 0 {
		t.Fatal("no cycles were skipped despite an 859-cycle idle gap")
	}
	if c.StepsExecuted == 0 {
		t.Fatal("no steps were counted")
	}
}

// TestEngineWakeSameCycleLaterComponent: waking a later-registered
// component at the current cycle, from inside a tick, must step it in the
// same tick — the exhaustive engine's same-cycle visibility rule.
func TestEngineWakeSameCycleLaterComponent(t *testing.T) {
	dst := &sleeper{}
	src := &feeder{times: []Cycle{7}, dst: dst}
	e := NewEngine()
	e.Register(src)
	e.Register(dst)
	_, ok := e.Run(func() bool { return len(dst.handled) >= 1 }, 100)
	if !ok {
		t.Fatal("run did not finish")
	}
	if dst.handled[0] != 7 {
		t.Fatalf("handled at %d, want the same cycle the feeder fired (7)", dst.handled[0])
	}
}

// TestEngineWakeUnregisteredPanics: waking a component the engine does not
// own is a wiring bug and must fail loudly.
func TestEngineWakeUnregisteredPanics(t *testing.T) {
	e := NewEngine()
	e.Register(&sleeper{})
	defer func() {
		if recover() == nil {
			t.Fatal("Wake on an unregistered component did not panic")
		}
	}()
	e.Wake(&sleeper{}, 0)
}

// TestEngineLegacyFallback: registering a component without NextEvent
// (not EventAware) must degrade to exhaustive stepping with unchanged
// results — the ComponentFunc drivers in older experiments rely on it.
func TestEngineLegacyFallback(t *testing.T) {
	var plainSteps Cycle
	plain := ComponentFunc(func(now Cycle) { plainSteps++ })
	b := &beacon{period: 100, count: 3}
	e := NewEngine()
	e.Register(plain)
	e.Register(b)
	elapsed, ok := e.Run(func() bool { return Cycle(len(b.fired)) >= 3 }, 10_000)
	if !ok {
		t.Fatal("run did not finish")
	}
	if elapsed != 201 {
		t.Fatalf("elapsed %d, want 201 (fire at 0, 100, 200 then done)", elapsed)
	}
	if plainSteps != elapsed {
		t.Fatalf("plain component stepped %d times over %d cycles; legacy mode must step every cycle", plainSteps, elapsed)
	}
}

// pulser is a self-scheduling component with a fixed plan of work cycles.
// It records the cycle and slot clock of each Step and the bound of each
// Settle, can wake itself for its next piece of work from inside Step, and
// can promise busy time after each piece.
type pulser struct {
	plan     []Cycle // work cycles still ahead, ascending
	selfWake bool
	busyFor  Cycle // NoteBusy(now+busyFor) after each piece of work
	eng      *Engine
	waker    Waker

	steps, slots, settles []Cycle
}

func (p *pulser) Attach(w Waker) { p.waker = w }

func (p *pulser) Step(now Cycle) {
	p.steps = append(p.steps, now)
	p.slots = append(p.slots, p.waker.SlotNow(p))
	if len(p.plan) == 0 || p.plan[0] > now {
		return
	}
	p.plan = p.plan[1:]
	if p.busyFor > 0 {
		p.eng.NoteBusy(now + p.busyFor)
	}
	if p.selfWake && len(p.plan) > 0 {
		p.waker.Wake(p, p.plan[0])
	}
}

func (p *pulser) NextEvent(now Cycle) Cycle {
	if len(p.plan) == 0 {
		return Never
	}
	return p.plan[0] // may lie before now: the engine clamps it
}

func (p *pulser) Settle(through Cycle) { p.settles = append(p.settles, through) }

// clone copies p's plan and records for a fresh engine.
func (p *pulser) clone() *pulser {
	return &pulser{
		plan: append([]Cycle(nil), p.plan...), selfWake: p.selfWake, busyFor: p.busyFor,
		steps:   append([]Cycle(nil), p.steps...),
		slots:   append([]Cycle(nil), p.slots...),
		settles: append([]Cycle(nil), p.settles...),
	}
}

// inert is an event-aware component with no work of its own. Its NextEvent
// is always Never, so after its first step it is stepped only by the
// exhaustive ticks that arm every component. Registered beside a single
// component it keeps the engine on the heap path.
type inert struct{ steps uint64 }

func (n *inert) Step(Cycle)            { n.steps++ }
func (n *inert) NextEvent(Cycle) Cycle { return Never }

// engineView is what one Run leaves behind in the engine for component i.
type engineView struct {
	elapsed               Cycle
	ok                    bool
	now, prevTick, anchor Cycle
	stride, horizon       Cycle
	stepping              int
	resumePending, armed  bool
	wake                  Cycle
	skipped, wakes, steps uint64
	dueLen                int
}

func viewOf(e *Engine, i int, elapsed Cycle, ok bool) engineView {
	v := engineView{
		elapsed: elapsed, ok: ok,
		now: e.now, prevTick: e.prevTick, anchor: e.gridAnchor,
		stride: e.stride, horizon: e.busyHorizon, stepping: e.stepping,
		resumePending: e.resumePending, armed: e.pos[i] >= 0,
		skipped: e.cyclesSkipped, wakes: e.wakesEnqueued, steps: e.stepsExecuted,
		dueLen: len(e.due),
	}
	if v.armed {
		v.wake = e.wake[i]
	}
	return v
}

// TestEngineMatchesHeapPathWithOneComponent pins the one-component loop of
// Engine.Run to the wake-queue path it replaces. Each case runs a pulser
// alone (the one-component loop), beside an inert neighbour (the heap
// path), and alone again with a checkpoint taken and restored into a
// fresh engine at every pause. After every Run the three must agree on the
// pulser's steps, slot clocks and settlements, the elapsed cycles, ok, Now,
// the pulser's armed wake and the clock and counter state; the heap path's
// StepsExecuted exceeds the others by exactly the neighbour's steps.
func TestEngineMatchesHeapPathWithOneComponent(t *testing.T) {
	planDone := func(p *pulser, e *Engine) bool { return len(p.plan) == 0 }
	cases := []struct {
		name    string
		stride  Cycle
		advance Cycle // cycles to Advance before the first Run
		plan    []Cycle
		self    bool
		busyFor Cycle
		done    func(p *pulser, e *Engine) bool
		limits  []Cycle
	}{
		{name: "self-wake", plan: []Cycle{0, 1, 2, 4, 7, 8, 30, 31, 32, 100}, self: true,
			done: planDone, limits: []Cycle{1000}},
		{name: "stride-16", stride: 16, advance: 3, plan: []Cycle{3, 5, 37, 38, 200},
			done: planDone, limits: []Cycle{1000}},
		{name: "overdue-work-stride-16", stride: 16, advance: 3, plan: []Cycle{3, 5, 6, 7},
			done: planDone, limits: []Cycle{20, 1000}},
		{name: "busy-horizon", plan: []Cycle{0, 10}, busyFor: 50,
			done:   func(p *pulser, e *Engine) bool { return len(p.plan) == 0 && e.Now() > e.BusyHorizon() },
			limits: []Cycle{1000}},
		{name: "idle-ticks-to-limit", plan: []Cycle{3},
			done: func(*pulser, *Engine) bool { return false }, limits: []Cycle{40, 7}},
		{name: "pause-mid-jump", plan: []Cycle{0, 5, 200, 203, 450}, self: true,
			done: planDone, limits: []Cycle{100, 50, 1000}},
		{name: "pause-mid-jump-stride-16", stride: 16, advance: 3, plan: []Cycle{3, 5, 200, 203}, self: true,
			done: planDone, limits: []Cycle{100, 1000}},
		{name: "pause-mid-horizon-jump", plan: []Cycle{0}, busyFor: 300,
			done:   func(p *pulser, e *Engine) bool { return len(p.plan) == 0 && e.Now() > e.BusyHorizon() },
			limits: []Cycle{100, 1000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(neighbour bool) (*Engine, *pulser, *inert) {
				e := NewEngine()
				e.SetStride(tc.stride)
				e.Advance(tc.advance)
				p := &pulser{plan: append([]Cycle(nil), tc.plan...), selfWake: tc.self, busyFor: tc.busyFor, eng: e}
				e.Register(p)
				var n *inert
				if neighbour {
					n = &inert{}
					e.Register(n)
				}
				return e, p, n
			}
			one, p1, _ := build(false)
			heap, p2, n := build(true)
			resumed, p3, _ := build(false)
			for k, limit := range tc.limits {
				el1, ok1 := one.Run(func() bool { return tc.done(p1, one) }, limit)
				el2, ok2 := heap.Run(func() bool { return tc.done(p2, heap) }, limit)
				el3, ok3 := resumed.Run(func() bool { return tc.done(p3, resumed) }, limit)
				v1, v2, v3 := viewOf(one, 0, el1, ok1), viewOf(heap, 0, el2, ok2), viewOf(resumed, 0, el3, ok3)
				if v2.steps != v1.steps+n.steps {
					t.Fatalf("run %d: heap path executed %d steps, want %d + neighbour's %d", k, v2.steps, v1.steps, n.steps)
				}
				v2.steps = v1.steps
				for _, e := range []*Engine{one, resumed} {
					armed := e.pos[0] == 0 && slices.Equal(e.fheap, []int{0})
					unarmed := e.pos[0] == -1 && len(e.fheap) == 0
					if !armed && !unarmed {
						t.Fatalf("run %d: one-component heap %v with pos %v", k, e.fheap, e.pos)
					}
				}
				if v1 != v2 || v1 != v3 {
					t.Fatalf("run %d: engines diverged:\n one-component %+v\n heap path     %+v\n resumed       %+v", k, v1, v2, v3)
				}
				for _, q := range []*pulser{p2, p3} {
					if !slices.Equal(p1.steps, q.steps) || !slices.Equal(p1.slots, q.slots) || !slices.Equal(p1.settles, q.settles) {
						t.Fatalf("run %d: component records diverged:\n one-component steps %v slots %v settles %v\n other         steps %v slots %v settles %v",
							k, p1.steps, p1.slots, p1.settles, q.steps, q.slots, q.settles)
					}
				}
				if ok3 {
					continue
				}
				// Paused: checkpoint the resumed arm and restore it into a
				// fresh one-component engine, which must carry on exactly.
				enc := NewEnc()
				resumed.SaveState(enc)
				fresh := NewEngine()
				p3 = p3.clone()
				p3.eng = fresh
				fresh.Register(p3)
				if err := fresh.LoadState(NewDec(enc.Bytes())); err != nil {
					t.Fatal(err)
				}
				again := NewEnc()
				fresh.SaveState(again)
				if !bytes.Equal(enc.Bytes(), again.Bytes()) {
					t.Fatalf("run %d: restored engine re-saves different bytes", k)
				}
				resumed = fresh
			}
			if len(tc.limits) > 1 && p1.steps[len(p1.steps)-1] < tc.limits[0] {
				t.Fatalf("the run never stepped past its first pause: steps %v", p1.steps)
			}
		})
	}
}

// TestEngineMatchesStraightRunPastStrideLimit pins a paused Run whose
// stride tick carries time past the limit. With stride 16, a component due
// at 0 and 40 and a limit of 10, the tick at 0 ends at cycle 16, and the
// Run must stop there rather than clamp time back to the limit. Resumed,
// it must take the straight run's steps and end at the straight run's Now
// with its CyclesSkipped: alone (the one-component loop), beside an inert
// neighbour (the heap loop), and through SaveState/LoadState at the pause.
func TestEngineMatchesStraightRunPastStrideLimit(t *testing.T) {
	build := func(neighbour bool) (*Engine, *pulser) {
		e := NewEngine()
		e.SetStride(16)
		p := &pulser{plan: []Cycle{0, 40, 50, 70, 90}, eng: e}
		e.Register(p)
		if neighbour {
			e.Register(&inert{})
		}
		return e, p
	}
	straight, ps := build(false)
	if _, ok := straight.Run(func() bool { return len(ps.plan) == 0 }, 1000); !ok {
		t.Fatal("straight run did not finish")
	}
	if want := []Cycle{0, 48, 64, 80, 96}; !slices.Equal(ps.steps, want) {
		t.Fatalf("straight run stepped at %v, want %v", ps.steps, want)
	}
	for _, tc := range []struct {
		name               string
		neighbour, restore bool
	}{
		{"one-component", false, false},
		{"heap", true, false},
		{"restored", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, p := build(tc.neighbour)
			done := func() bool { return len(p.plan) == 0 }
			if elapsed, ok := e.Run(done, 10); ok || elapsed != 16 || e.Now() != 16 {
				t.Fatalf("paused run: elapsed %d, ok %v, Now %d; want 16, false, 16", elapsed, ok, e.Now())
			}
			if tc.restore {
				enc := NewEnc()
				e.SaveState(enc)
				fresh := NewEngine()
				p = p.clone()
				p.eng = fresh
				fresh.Register(p)
				if err := fresh.LoadState(NewDec(enc.Bytes())); err != nil {
					t.Fatal(err)
				}
				e = fresh
			}
			if _, ok := e.Run(done, 1000); !ok {
				t.Fatal("resumed run did not finish")
			}
			got, want := e.Counters().CyclesSkipped, straight.Counters().CyclesSkipped
			if !slices.Equal(p.steps, ps.steps) || e.Now() != straight.Now() || got != want {
				t.Fatalf("resumed run stepped at %v, ended at %d, skipped %d; the straight run %v, %d, %d",
					p.steps, e.Now(), got, ps.steps, straight.Now(), want)
			}
		})
	}
}

// ticker is due every cycle and never allocates.
type ticker struct{ steps uint64 }

func (k *ticker) Step(Cycle)                { k.steps++ }
func (k *ticker) NextEvent(now Cycle) Cycle { return now }

// TestEngineTickAllocatesNothing: a tick allocates nothing on the
// one-component loop or on the heap path, once the heaps have grown.
func TestEngineTickAllocatesNothing(t *testing.T) {
	for _, neighbour := range []bool{false, true} {
		e := NewEngine()
		e.Register(&ticker{})
		if neighbour {
			e.Register(&inert{})
		}
		never := func() bool { return false }
		e.Run(never, 16)
		if allocs := testing.AllocsPerRun(100, func() { e.Run(never, 64) }); allocs != 0 {
			t.Fatalf("neighbour %v: %.1f allocations per 64-tick Run, want 0", neighbour, allocs)
		}
	}
}
