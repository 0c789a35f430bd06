package sim

// Engine is the shared event-driven simulation driver every machine model
// runs on. It keeps the deterministic contract the exhaustive Scheduler
// established — registration order is evaluation order, statistics are
// bit-identical to stepping every component every cycle — while paying
// O(active) per tick instead of O(registered): a wake-queue (indexed
// min-heap of per-component wake cycles) decides who steps, and nextEvent
// is a heap peek instead of an O(n) poll.
//
// The scheduling contract, in full:
//
//   - Registration order is evaluation order. Components due on the same
//     tick step in registration order, so within-cycle interactions (a
//     network delivering into a bank before the bank's step, a core issuing
//     after its memory stepped) behave exactly as under an exhaustive loop.
//   - Honesty: if NextEvent(now) > now then Step(now) is a no-op — it
//     changes no counters, gauges, or queues. This is what makes skipping a
//     component's slot sound: the slot would have observed and changed
//     nothing. The property tests in vn and cache enforce this directly.
//   - Staleness: a component's armed wake cycle is its NextEvent answer as
//     of its last step, min-merged with every Wake aimed at it since. Any
//     mutation that could advance a component's next event MUST be paired
//     with a Wake (components wake themselves from Request/Send/Done
//     entry points; glue code uses Engine.Wake directly). A missed wake
//     stalls the component; an early wake merely buys an extra no-op step.
//   - Settlement: components with per-cycle statistics implement Settler
//     and account jumped-over cycles lazily at the state frozen by their
//     last step. Engine.Wake settles the target before the caller's
//     mutation lands, so the frozen level never leaks past the instant it
//     stopped being true, and Run settles everyone on exit.
//
// Mutating a component between Runs (Poke, SetReg, pre-loading requests)
// needs no explicit wake: Run re-arms every component at entry.
//
// Components that do not implement EventAware (plain ComponentFuncs) make
// the schedule open-loop: the engine falls back to exhaustive per-cycle
// stepping of everything, exactly the pre-wake-queue behaviour.
type Engine struct {
	components []Component
	events     []EventAware      // events[i] non-nil iff components[i] is EventAware
	settlers   []Settler         // settlers[i] non-nil iff components[i] settles
	allSettle  []Settler         // compact list for settleAll
	index      map[Component]int // EventAware components only (funcs are unhashable)
	legacy     bool              // a non-EventAware component forces exhaustive stepping

	now         Cycle
	prevTick    Cycle // the executed tick before now: the slot clock for SlotNow
	stride      Cycle
	busyHorizon Cycle

	// Wake-queue state. fheap holds indices of armed components ordered by
	// (wake cycle, index); pos[i] is i's heap slot or -1. Each tick, due
	// entries move to the due heap (ordered by index alone) and step in
	// registration order. stepping is the index currently inside Step, -1
	// outside a tick — Wake and SlotNow use it to tell whether a target's
	// slot has already passed this cycle.
	wake     []Cycle
	fheap    []int
	pos      []int
	due      []int
	inDue    []bool
	stepping int

	stepsExecuted uint64
	cyclesSkipped uint64
	wakesEnqueued uint64

	// gridAnchor is the cycle the current run's stride grid is aligned to:
	// the entry cycle of the run, preserved across checkpoint/resume so a
	// resumed run lands on the same tick grid as the uninterrupted one.
	gridAnchor Cycle
	// resumePending is set by LoadState: the next Run must not re-arm every
	// component (the restored wake queue is already exact) and must execute
	// the idle-jump before its first tick, so a run resumed from a pause
	// mid-jump skips the same cycles the uninterrupted run skipped.
	resumePending bool
}

// Settler is implemented by components that keep per-cycle statistics and
// must account cycles the engine jumped over. Settle(through) settles
// statistics for all unaccounted cycles before `through`, using the state
// frozen at the component's last step — sound because jumped-over cycles
// are activity-free by construction.
type Settler interface {
	Settle(through Cycle)
}

// Waker is the scheduling interface an Engine hands to its components at
// registration. Components use it to arm their own next step from
// mutation entry points (Request, Send, Done) and to read the slot clock.
type Waker interface {
	// Now reports the engine's current cycle.
	Now() Cycle
	// SlotNow reports the cycle an exhaustive per-cycle engine would show
	// on c's own clock at this instant: the current cycle if c's step slot
	// has already been reached this tick, the previous executed tick if
	// not. Components stamping times outside their own Step (a network
	// recording InjectedAt inside Send) must use this, not Now, to stay
	// bit-identical with exhaustive stepping.
	SlotNow(c Component) Cycle
	// Wake schedules c to step at cycle at (min-merged with any wake
	// already armed). Call it whenever a mutation could advance c's next
	// event; waking early is safe, not waking is not.
	Wake(c Component, at Cycle)
}

// Wakeable is implemented by components that arm their own wakeups;
// Register hands them the engine's Waker.
type Wakeable interface {
	Attach(w Waker)
}

// NewEngine returns an empty engine at cycle 0 advancing 1 cycle per tick.
func NewEngine() *Engine {
	return &Engine{stride: 1, stepping: -1, index: map[Component]int{}}
}

// Register adds c to the step list. Registration order is evaluation
// order — part of the deterministic contract, exactly as with Scheduler.
// EventAware components are entered into the wake-queue; Wakeable ones
// receive the engine's Waker.
func (e *Engine) Register(c Component) {
	i := len(e.components)
	e.components = append(e.components, c)
	var s Settler
	if ss, ok := c.(Settler); ok {
		s = ss
		e.allSettle = append(e.allSettle, ss)
	}
	e.settlers = append(e.settlers, s)
	ea, ok := c.(EventAware)
	e.events = append(e.events, ea)
	if ok {
		e.index[c] = i
	} else {
		e.legacy = true
	}
	e.wake = append(e.wake, Never)
	e.pos = append(e.pos, -1)
	e.inDue = append(e.inDue, false)
	if w, ok := c.(Wakeable); ok {
		w.Attach(e)
	}
}

// Now reports the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// SlotNow implements Waker: the component's slot clock under exhaustive
// stepping. During a tick at cycle T, components at or before the stepping
// slot read T; components whose slot is still ahead read the previous
// executed tick (their last exhaustive step). Outside a tick everyone
// reads the current cycle.
func (e *Engine) SlotNow(c Component) Cycle {
	if e.stepping < 0 {
		return e.now
	}
	if i, ok := e.index[c]; ok && i > e.stepping {
		return e.prevTick
	}
	return e.now
}

// Wake implements Waker. The target is settled through the pre-mutation
// boundary first (cycles before this instant sample the old frozen state),
// then scheduled: a target whose slot is still ahead this tick joins the
// current tick; anything else arms in the future heap, clamped to now.
func (e *Engine) Wake(c Component, at Cycle) {
	e.wakesEnqueued++
	if e.legacy {
		return // exhaustive mode steps everyone every cycle anyway
	}
	i, ok := e.index[c]
	if !ok {
		panic("sim: Wake on a component not registered with this engine")
	}
	if s := e.settlers[i]; s != nil {
		// If the target's slot already passed this tick, cycle now itself
		// was observed at the pre-mutation state; otherwise its own Step
		// (or settleAll) will sample now at the post-mutation state.
		b := e.now
		if e.stepping >= 0 && i <= e.stepping {
			b = e.now + 1
		}
		s.Settle(b)
	}
	if i == e.stepping || e.inDue[i] {
		return // steps this tick after the mutation; its re-arm covers the rest
	}
	if at <= e.now && e.stepping >= 0 && i > e.stepping {
		// Due later this very tick: the slot has not run yet.
		if e.pos[i] >= 0 {
			e.heapRemove(i)
		}
		e.duePush(i)
		return
	}
	e.arm(i, at)
}

// SetStride sets the simulated-time cost of one tick. The Connection
// Machine's sequencer charges a full bit-serial word time per router step;
// everything else leaves the default of 1.
func (e *Engine) SetStride(d Cycle) {
	if d < 1 {
		d = 1
	}
	e.stride = d
}

// Advance moves simulated time forward by d cycles outside Run — the SIMD
// sequencer's compute instructions consume time without stepping any
// component.
func (e *Engine) Advance(d Cycle) { e.now += d }

// NoteBusy raises the busy horizon: a promise that some resource is
// occupied through cycle `until`. Machines whose completion predicate is
// "queues empty and past the horizon" (the TTDA) call this as they issue
// work; when no component is armed but the horizon is still ahead, the
// engine jumps to the horizon instead of the cycle limit.
func (e *Engine) NoteBusy(until Cycle) {
	if until > e.busyHorizon {
		e.busyHorizon = until
	}
}

// BusyHorizon reports the latest cycle any resource promised to be busy
// through.
func (e *Engine) BusyHorizon() Cycle { return e.busyHorizon }

// Counters is a snapshot of the engine's self-observability counters:
// scheduler efficiency, not simulated results.
type Counters struct {
	// StepsExecuted counts component Step calls.
	StepsExecuted uint64 `json:"steps_executed"`
	// CyclesSkipped counts simulated cycles the engine jumped over without
	// ticking.
	CyclesSkipped uint64 `json:"cycles_skipped"`
	// WakesEnqueued counts Wake calls (self-wakes and cross-component).
	WakesEnqueued uint64 `json:"wakes_enqueued"`
}

// Counters returns the engine's scheduling counters.
func (e *Engine) Counters() Counters {
	return Counters{
		StepsExecuted: e.stepsExecuted,
		CyclesSkipped: e.cyclesSkipped,
		WakesEnqueued: e.wakesEnqueued,
	}
}

// --- wake-queue plumbing ---

// heapLess orders the future heap by (wake cycle, registration index), so
// draining due entries preserves registration order deterministically.
func (e *Engine) heapLess(a, b int) bool {
	return e.wake[a] < e.wake[b] || (e.wake[a] == e.wake[b] && a < b)
}

func (e *Engine) heapUp(j int) {
	h := e.fheap
	for j > 0 {
		p := (j - 1) / 2
		if !e.heapLess(h[j], h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		e.pos[h[j]] = j
		e.pos[h[p]] = p
		j = p
	}
}

func (e *Engine) heapDown(j int) {
	h := e.fheap
	n := len(h)
	for {
		l := 2*j + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.heapLess(h[r], h[l]) {
			m = r
		}
		if !e.heapLess(h[m], h[j]) {
			return
		}
		h[j], h[m] = h[m], h[j]
		e.pos[h[j]] = j
		e.pos[h[m]] = m
		j = m
	}
}

func (e *Engine) heapPopMin() int {
	h := e.fheap
	i := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.pos[h[0]] = 0
	e.fheap = h[:last]
	if last > 0 {
		e.heapDown(0)
	}
	e.pos[i] = -1
	return i
}

func (e *Engine) heapRemove(i int) {
	j := e.pos[i]
	h := e.fheap
	last := len(h) - 1
	if j != last {
		h[j] = h[last]
		e.pos[h[j]] = j
	}
	e.fheap = h[:last]
	e.pos[i] = -1
	if j != last {
		e.heapDown(j)
		e.heapUp(j)
	}
}

// arm schedules component i at cycle at, min-merged with any armed wake
// and clamped to the present.
func (e *Engine) arm(i int, at Cycle) {
	if at < e.now {
		at = e.now
	}
	if p := e.pos[i]; p >= 0 {
		if at < e.wake[i] {
			e.wake[i] = at
			e.heapUp(p)
		}
		return
	}
	e.wake[i] = at
	e.pos[i] = len(e.fheap)
	e.fheap = append(e.fheap, i)
	e.heapUp(len(e.fheap) - 1)
}

// wakeAllAt arms every component at cycle at: the exhaustive tick,
// expressed in wake-queue form.
func (e *Engine) wakeAllAt(at Cycle) {
	for i := range e.components {
		e.arm(i, at)
	}
}

func (e *Engine) duePush(i int) {
	e.inDue[i] = true
	d := append(e.due, i)
	j := len(d) - 1
	for j > 0 {
		p := (j - 1) / 2
		if d[p] <= d[j] {
			break
		}
		d[j], d[p] = d[p], d[j]
		j = p
	}
	e.due = d
}

func (e *Engine) duePop() int {
	d := e.due
	i := d[0]
	last := len(d) - 1
	d[0] = d[last]
	e.due = d[:last]
	d = e.due
	j := 0
	for {
		l := 2*j + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && d[r] < d[l] {
			m = r
		}
		if d[j] <= d[m] {
			break
		}
		d[j], d[m] = d[m], d[j]
		j = m
	}
	return i
}

// tick steps every due component in registration order, re-arming each
// from its own NextEvent answer, then advances time by the stride.
func (e *Engine) tick() {
	for len(e.fheap) > 0 && e.wake[e.fheap[0]] <= e.now {
		e.duePush(e.heapPopMin())
	}
	for len(e.due) > 0 {
		i := e.duePop()
		e.inDue[i] = false
		e.stepping = i
		e.components[i].Step(e.now)
		e.stepsExecuted++
		if t := e.events[i].NextEvent(e.now); t != Never {
			e.arm(i, t)
		}
	}
	e.stepping = -1
	e.prevTick = e.now
	e.now += e.stride
}

// legacyTick steps every component, in registration order — the exhaustive
// fallback when a non-EventAware component is registered.
func (e *Engine) legacyTick() {
	for i, c := range e.components {
		e.stepping = i
		c.Step(e.now)
	}
	e.stepsExecuted += uint64(len(e.components))
	e.stepping = -1
	e.prevTick = e.now
	e.now += e.stride
}

// legacyNextEvent polls every component for the minimum of their
// NextEvent answers; non-EventAware components pin it to now.
func (e *Engine) legacyNextEvent() Cycle {
	next := Never
	for _, ea := range e.events {
		if ea == nil {
			return e.now
		}
		if t := ea.NextEvent(e.now); t < next {
			next = t
		}
		if next <= e.now {
			return e.now
		}
	}
	return next
}

// settleAll settles per-cycle statistics through the current cycle.
func (e *Engine) settleAll() {
	for _, s := range e.allSettle {
		s.Settle(e.now)
	}
}

// Run advances until done reports true or limit cycles have elapsed,
// returning the elapsed cycles and whether done was satisfied. done is
// evaluated before the first tick, after every tick and after every idle
// jump that moved time — an already-finished machine costs zero cycles,
// and the elapsed count on success is the exact cycle the predicate first
// held. done must depend only on simulation state and time: it is not
// asked again while neither has changed since it answered false. Every
// component is re-armed at entry, so state mutated between Runs needs no
// explicit Wake. On return (either way) all Settler components are settled
// through the final cycle, so statistics read afterwards are complete.
func (e *Engine) Run(done func() bool, limit Cycle) (elapsed Cycle, ok bool) {
	start := e.now
	defer e.settleAll()
	if e.resumePending {
		// Resuming from a checkpoint: the restored wake queue is already
		// exact, so no blanket re-arm — and the pause may have landed
		// mid-jump (the limit clamped an idle skip), so the jump completes
		// before the first tick, exactly as the uninterrupted run took it.
		e.resumePending = false
		if !done() {
			e.idleJump(start, limit)
		}
	} else {
		e.gridAnchor = e.now
		if !e.legacy {
			e.wakeAllAt(e.now)
		}
	}
	asked := false // done answered false and nothing has moved since
	for e.now-start < limit {
		if !asked && done() {
			return e.now - start, true
		}
		if e.legacy {
			e.legacyTick()
		} else {
			e.tick()
		}
		if done() {
			return e.now - start, true // the exact completion cycle, not a jump target
		}
		before := e.now
		e.idleJump(start, limit)
		asked = e.now == before
	}
	if ok = done(); !ok {
		// Paused at the limit: the wake queue is exact, so the next Run
		// (on this engine, or on one restored from a checkpoint taken now)
		// must resume rather than blanket re-arm.
		e.resumePending = true
	}
	return e.now - start, ok
}

// idleJump advances simulated time to the next armed wake (or the busy
// horizon) when nothing is due now, clamped to the run's cycle limit and
// aligned to the stride grid. Shared by the post-tick path and the
// resume-from-checkpoint prologue.
func (e *Engine) idleJump(start, limit Cycle) {
	var t Cycle
	if e.legacy {
		t = e.legacyNextEvent()
	} else if len(e.fheap) > 0 {
		t = e.wake[e.fheap[0]]
	} else {
		t = Never
	}
	if t <= e.now {
		return
	}
	fromHorizon := false
	if t == Never {
		if e.busyHorizon <= e.now {
			// Nothing is armed and no resource is busy. A component
			// mutated without a wake (there are none, but the
			// contract degrades safely) or a genuinely-finished
			// machine whose done predicate lags: advance one
			// exhaustive tick rather than jumping.
			if !e.legacy {
				e.wakeAllAt(e.now)
			}
			return
		}
		// Nothing will fire an event, but a resource is still
		// occupied: the done predicate can first hold at the
		// horizon.
		t = e.busyHorizon
		fromHorizon = true
	}
	clamped := false
	if t-start > limit {
		t = start + limit
		clamped = true
	}
	if e.stride > 1 {
		// stay on the tick grid (anchored at the original run's entry
		// cycle, so resumed runs share the uninterrupted run's grid)
		if off := (t - e.gridAnchor) % e.stride; off != 0 {
			t += e.stride - off
			if t-start > limit {
				t = start + limit
				clamped = true
			}
		}
	}
	if t > e.now {
		e.cyclesSkipped += uint64(t - e.now)
	}
	e.now = t
	if fromHorizon && !clamped && !e.legacy {
		// The horizon tick is exhaustive, as it was under polling:
		// no component predicted it, so every slot must run. When the
		// clamp cut the jump short (the run is pausing at its limit),
		// the arm is skipped: the resumed run re-derives the same
		// horizon jump and arms at the true horizon, exactly as the
		// uninterrupted run did.
		e.wakeAllAt(e.now)
	}
}
