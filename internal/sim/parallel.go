package sim

import (
	"fmt"
	"slices"
)

// ParallelEngine is the sharded counterpart of Engine: the machine's
// components are split into a serial prefix (fabrics, pumps, shared
// managers — everything whose step may touch global state) and a block of
// shard runners, each owning a disjoint slice of the machine (TTDA PEs
// plus their I-structure banks, cmmp/ultra processors, Cm* clusters).
//
// Every tick is an epoch of three phases, all on the calling goroutine:
//
//  1. serial phase — due serial components step in registration order,
//     exactly as under Engine (network delivery, memory service, event
//     pumps; anything here may freely mutate shard state and Wake).
//  2. runner phase — due shard runners step in ascending shard order. A
//     runner may touch only its shard's state; every cross-shard effect
//     (a packet injection, a manager request, a shared counter) is
//     appended to the shard's deferred-op log instead of applied. Wake is
//     forbidden here; the runner's post-commit NextEvent answer re-arms it.
//  3. commit phase — the machine's commit hook drains every shard's log
//     in ascending shard order. Shards own contiguous ascending component
//     ranges, so the drain replays cross-shard effects in exactly the
//     order the sequential engine produced them; the tick's cycle number
//     is still current, so timestamps (InjectedAt, due cycles) match too.
//
// Deferring an effect from the runner phase to the commit phase is
// conservative — and bit-identical to sequential execution — only when no
// deferred effect can influence another shard within the same tick. That
// is the fabric's lookahead: the minimum cross-shard latency it declares
// (network.Lookaheader). The shard planner refuses lookahead < 1.
//
// The runners of one tick are independent by construction, so they could
// step on separate goroutines; an earlier version did, and on two CPUs its
// fork/join barrier cost more than the shards' work (DESIGN.md §12).
// Host parallelism lives between runs instead: the sweep runner and the
// serve workers run whole machines concurrently.
//
// Machines whose fabric declares a windowing lookahead (EnableWindows) can
// widen an epoch to several ticks: see the "adaptive epoch windows"
// section below.
//
// Everything else — wake-queue arming, SlotNow's slot clock, the
// settle-before-mutation rule, busy-horizon quiescence, idle-cycle
// skipping — reproduces Engine behaviour exactly, so cycle counts and
// statistics stay bit-identical to the sequential engine. (The scheduler's
// own Counters necessarily differ: a machine that registers one driver
// with Engine but 1+N components here executes a different number of
// Steps. Simulated observables are what the conformance oracle compares.)
type ParallelEngine struct {
	components []Component
	events     []EventAware
	settlers   []Settler
	allSettle  []Settler
	index      map[Component]int
	// firstRunner is the index of the first shard runner; every component
	// at or past it is a runner. -1 while only serial components exist.
	firstRunner int

	now         Cycle
	prevTick    Cycle
	stride      Cycle
	busyHorizon Cycle

	wake     []Cycle
	fheap    []int
	pos      []int
	due      []int
	inDue    []bool
	stepping int

	commit func(now Cycle)

	// inPhase is true while shard runners step: Wake panics then, and
	// MemberWaker settles members in place.
	inPhase  bool
	inCommit bool

	stepsExecuted uint64
	cyclesSkipped uint64
	wakesEnqueued uint64
	workerSteps   []uint64 // Step calls per shard runner

	// gridAnchor / resumePending: see Engine — the stride-grid anchor and
	// the LoadState flag that makes the next Run resume without re-arming.
	gridAnchor    Cycle
	resumePending bool

	dueRunners []int

	// --- adaptive epoch windows (EnableWindows) ---

	// winOn enables multi-tick epochs; winLook is the fabric's declared
	// windowing lookahead and winCap an optional ceiling on window width
	// (0 = adaptive/unbounded).
	winOn   bool
	winLook Cycle
	winCap  Cycle
	// inWindow is true while a window executes; SaveState refuses then,
	// and arm clamps runner wakes to their frontier.
	inWindow bool
	// winRunners caches the WindowRunner view of each shard runner.
	winRunners []WindowRunner
	// frontier[k] is the lowest tick runner k may still step inside the
	// current window: one past the last tick it executed. Commit-time
	// wakes back-dated to an already-stepped tick clamp up to it.
	frontier []Cycle
	// pendTick[k] is the tick at which runner k dirty-stopped and whose
	// deferred ops await their commit slot; Never when none pending.
	pendTick []Cycle
	// winMark[k] records which region ticks runner k stepped (census for
	// exact cycles-skipped accounting).
	winMark [][]bool

	winEpochs uint64 // windows executed
	winTicks  uint64 // simulated cycles covered by those windows
}

// WindowRunner is a shard runner that can execute several consecutive
// ticks of its local timeline between commits. EnableWindows requires
// every registered shard runner to implement it.
type WindowRunner interface {
	Component
	// StepWindow advances the runner's local timeline from tick `from`
	// toward `until` (exclusive): the runner steps every tick its own
	// next-event answer makes due, in ascending order, marking each
	// stepped tick t in stepped[t-base] (the engine's executed-tick
	// census), and stops early — a dirty stop — immediately after any
	// tick on which it appended to its deferred-op log. It returns the
	// last tick it stepped, the earliest future tick it wants to run
	// (Never when parked; ignored after a dirty stop), whether it stopped
	// dirty, and how many Steps it executed.
	StepWindow(from, until Cycle, stepped []bool, base Cycle) (last, next Cycle, dirty bool, steps uint64)
}

// NewParallelEngine returns an empty parallel engine at cycle 0.
func NewParallelEngine() *ParallelEngine {
	return &ParallelEngine{stride: 1, stepping: -1, firstRunner: -1, index: map[Component]int{}}
}

// Register adds a serial component. Serial components step before every
// shard runner each tick, in registration order; they are the only
// components allowed to mutate state outside their own shard. All
// components must be EventAware (there is no exhaustive fallback), and
// serial registration must precede every RegisterShard.
func (e *ParallelEngine) Register(c Component) {
	if e.firstRunner >= 0 {
		panic("sim: ParallelEngine.Register after RegisterShard — serial components must precede shard runners")
	}
	e.register(c)
}

// RegisterShard adds a shard runner. Runners step during the runner phase
// and commit their deferred ops in registration (= shard) order. Register
// shards in ascending order of the sequential component range they own:
// the commit drain then reproduces sequential evaluation order exactly.
func (e *ParallelEngine) RegisterShard(c Component) {
	if e.firstRunner < 0 {
		e.firstRunner = len(e.components)
	}
	e.register(c)
	e.workerSteps = append(e.workerSteps, 0)
}

func (e *ParallelEngine) register(c Component) {
	i := len(e.components)
	ea, ok := c.(EventAware)
	if !ok {
		panic("sim: ParallelEngine requires EventAware components")
	}
	e.components = append(e.components, c)
	e.events = append(e.events, ea)
	var s Settler
	if ss, ok := c.(Settler); ok {
		s = ss
		e.allSettle = append(e.allSettle, ss)
	}
	e.settlers = append(e.settlers, s)
	e.index[c] = i
	e.wake = append(e.wake, Never)
	e.pos = append(e.pos, -1)
	e.inDue = append(e.inDue, false)
	if w, ok := c.(Wakeable); ok {
		w.Attach(e)
	}
}

// EnableWindows opts the engine into adaptive multi-tick epochs. lookahead
// is the fabric's declared windowing lookahead: an effect a runner defers
// at tick t cannot reach another shard before t+lookahead (the fabric must
// schedule exact delivery times at injection and tolerate not being
// stepped on delivery-free ticks — see network.Windowable). cap bounds the
// width of one window in cycles (<= 0 means adaptive: bounded only by the
// horizon rule). A cap of 1 degenerates to per-tick epochs.
//
// Window soundness is the machine's side of a contract: deferred ops may
// only (a) mutate state read exclusively inside commit hooks, (b) schedule
// serial-component work at or after t+lookahead, or (c) mutate the
// producing shard's own state — the dirty stop keeps that shard from
// running past its own uncommitted effects. Machines whose shard members
// are attached through MemberWaker must not enable windows: the member
// settle path uses the epoch clock, which lags the runner's local tick
// inside a window.
//
// Call after every RegisterShard; every runner must implement
// WindowRunner, and lookahead must be at least 1.
func (e *ParallelEngine) EnableWindows(lookahead, cap Cycle) {
	if e.firstRunner < 0 {
		panic("sim: EnableWindows before any RegisterShard")
	}
	if lookahead < 1 {
		panic(fmt.Sprintf("sim: EnableWindows lookahead %d — a window needs a cross-shard latency of at least 1 cycle", lookahead))
	}
	if cap == 1 {
		return // per-tick epochs requested explicitly
	}
	n := e.Shards()
	e.winRunners = make([]WindowRunner, n)
	for k := 0; k < n; k++ {
		r, ok := e.components[e.firstRunner+k].(WindowRunner)
		if !ok {
			panic("sim: EnableWindows requires every shard runner to implement WindowRunner")
		}
		e.winRunners[k] = r
	}
	e.frontier = make([]Cycle, n)
	e.pendTick = make([]Cycle, n)
	e.winMark = make([][]bool, n)
	for k := range e.winMark {
		e.winMark[k] = make([]bool, lookahead)
	}
	e.winLook, e.winCap = lookahead, cap
	if e.winCap < 0 {
		e.winCap = 0
	}
	e.winOn = true
}

// WindowStats reports how many multi-tick windows ran and how many
// simulated cycles they covered (0, 0 when windowing is off or never
// engaged). Diagnostics only; not part of the checkpoint state.
func (e *ParallelEngine) WindowStats() (windows, cycles uint64) {
	return e.winEpochs, e.winTicks
}

// OnCommit installs the machine's commit hook, called once per tick after
// the runner phase (even when the deferred logs are empty). The
// hook must drain, from every shard's log in ascending shard order, the
// ops whose production tick is at or before now — in per-tick mode that is
// every logged op; inside a window later-tick ops stay queued for a later
// commit slot.
func (e *ParallelEngine) OnCommit(fn func(now Cycle)) { e.commit = fn }

// Shards reports the number of registered shard runners.
func (e *ParallelEngine) Shards() int {
	if e.firstRunner < 0 {
		return 0
	}
	return len(e.components) - e.firstRunner
}

// Now reports the current cycle.
func (e *ParallelEngine) Now() Cycle { return e.now }

// SlotNow implements Waker exactly as Engine does: components at or before
// the stepping slot read the current cycle, later ones the previous
// executed tick. During the commit phase every slot has passed, so
// everyone reads the current cycle.
func (e *ParallelEngine) SlotNow(c Component) Cycle {
	if e.stepping < 0 {
		return e.now
	}
	if i, ok := e.index[c]; ok && i > e.stepping {
		return e.prevTick
	}
	return e.now
}

// Wake implements Waker with Engine's settle-then-arm semantics. It must
// only be called from serial contexts — the serial phase, the commit
// phase, or between ticks. Shard code running in the runner phase
// defers instead (see MemberWaker for self-wakes of shard members).
func (e *ParallelEngine) Wake(c Component, at Cycle) {
	if e.inPhase {
		panic("sim: ParallelEngine.Wake during the runner phase — defer the effect to the commit log")
	}
	e.wakesEnqueued++
	i, ok := e.index[c]
	if !ok {
		panic("sim: Wake on a component not registered with this engine")
	}
	if s := e.settlers[i]; s != nil {
		b := e.now
		if e.inCommit || (e.stepping >= 0 && i <= e.stepping) {
			// The target's slot has passed this tick (always true during
			// commit): cycle now itself was observed at the pre-mutation
			// state.
			b = e.now + 1
		}
		s.Settle(b)
	}
	if i == e.stepping || e.inDue[i] {
		return
	}
	if at <= e.now && e.stepping >= 0 && i > e.stepping {
		if e.pos[i] >= 0 {
			e.heapRemove(i)
		}
		e.duePush(i)
		return
	}
	e.arm(i, at)
}

// SetStride sets the simulated-time cost of one tick.
func (e *ParallelEngine) SetStride(d Cycle) {
	if d < 1 {
		d = 1
	}
	e.stride = d
}

// NoteBusy raises the busy horizon (serial contexts only; shard code
// accumulates a per-shard horizon merged at commit).
func (e *ParallelEngine) NoteBusy(until Cycle) {
	if until > e.busyHorizon {
		e.busyHorizon = until
	}
}

// BusyHorizon reports the latest promised-busy cycle.
func (e *ParallelEngine) BusyHorizon() Cycle { return e.busyHorizon }

// Counters returns the engine's scheduling counters.
func (e *ParallelEngine) Counters() Counters {
	return Counters{
		StepsExecuted: e.stepsExecuted,
		CyclesSkipped: e.cyclesSkipped,
		WakesEnqueued: e.wakesEnqueued,
	}
}

// WorkerSteps reports per-shard runner Step counts, in shard order: each
// shard's share of the runner phase. A window pass counts every tick the
// runner stepped.
func (e *ParallelEngine) WorkerSteps() []uint64 {
	out := make([]uint64, len(e.workerSteps))
	copy(out, e.workerSteps)
	return out
}

// --- wake-queue plumbing (identical to Engine's) ---

func (e *ParallelEngine) heapLess(a, b int) bool {
	return e.wake[a] < e.wake[b] || (e.wake[a] == e.wake[b] && a < b)
}

func (e *ParallelEngine) heapUp(j int) {
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

func (e *ParallelEngine) heapDown(j int) {
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

func (e *ParallelEngine) heapPopMin() int {
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

func (e *ParallelEngine) heapRemove(i int) {
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

func (e *ParallelEngine) arm(i int, at Cycle) {
	if at < e.now {
		at = e.now
	}
	if e.inWindow && i >= e.firstRunner {
		// A commit replayed at an already-executed tick may wake its
		// producing runner back-dated; the runner's local timeline has
		// passed that tick, so the wake lands at its frontier instead.
		if f := e.frontier[i-e.firstRunner]; at < f {
			at = f
		}
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

func (e *ParallelEngine) wakeAllAt(at Cycle) {
	for i := range e.components {
		e.arm(i, at)
	}
}

func (e *ParallelEngine) duePush(i int) {
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

func (e *ParallelEngine) duePop() int {
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

// tick runs one epoch: serial phase, runner phase, commit.
func (e *ParallelEngine) tick() {
	for len(e.fheap) > 0 && e.wake[e.fheap[0]] <= e.now {
		e.duePush(e.heapPopMin())
	}
	// Serial phase: the due heap is ordered by index and serial components
	// occupy the low indices, so draining while the head is serial steps
	// them in registration order. A serial step may duePush a later serial
	// component or a runner; both land behind the current head.
	for len(e.due) > 0 && (e.firstRunner < 0 || e.due[0] < e.firstRunner) {
		i := e.duePop()
		e.inDue[i] = false
		e.stepping = i
		e.components[i].Step(e.now)
		e.stepsExecuted++
		if t := e.events[i].NextEvent(e.now); t != Never {
			e.arm(i, t)
		}
	}
	// Runner phase: remaining due entries are runners.
	e.dueRunners = e.dueRunners[:0]
	for len(e.due) > 0 {
		i := e.duePop()
		e.inDue[i] = false
		e.dueRunners = append(e.dueRunners, i)
	}
	e.stepping = -1
	if len(e.dueRunners) > 0 {
		e.runPhase()
		e.inCommit = true
		if e.commit != nil {
			e.commit(e.now)
		}
		e.inCommit = false
		// Re-arm after commit: committed effects (a token pushed into a
		// PE's output queue by a deferred manager op) are visible to the
		// runner's NextEvent answer, exactly as they were to the
		// sequential driver's in-step cache.
		for _, i := range e.dueRunners {
			if t := e.events[i].NextEvent(e.now); t != Never {
				e.arm(i, t)
			}
		}
	}
	e.prevTick = e.now
	e.now += e.stride
}

// --- adaptive epoch windows ---
//
// A window is a run of ticks [now, wEnd) that the engine can prove free of
// serial-component work and of cross-shard influence: wEnd never passes
// the earliest armed serial wake, and never passes runnerMin+lookahead,
// where runnerMin is the earliest armed runner wake — so an effect a
// runner defers at tick u >= runnerMin cannot reach another shard (or the
// fabric's delivery path) before u+lookahead >= wEnd. Inside the window
// each shard runs its local timeline independently of the others; the
// only ordering left is the dirty-stop protocol:
//
//   - a runner halts its timeline immediately after any tick u on which it
//     deferred ops (its own state may depend on their commit at u);
//   - the engine replays pending ops strictly in (tick, shard) order, with
//     the clock rewound to the production tick so commit-time timestamps
//     (InjectedAt, memory due cycles) match the per-tick engine exactly —
//     and only once no runner armed earlier could still produce
//     earlier-tick ops;
//   - the committed runner resumes from its frontier, never re-stepping a
//     tick it already executed.
//
// In the worst case (ops on every tick) this degenerates to per-tick
// epochs; when cross-shard traffic is sparse it collapses a commit scan
// per tick into one per lookahead-window, and fuses the idle jump in.

// tryWindow attempts a multi-tick epoch ending no later than maxEnd.
// It reports false — fall back to a normal tick — when the window would
// not beat per-tick stepping.
func (e *ParallelEngine) tryWindow(maxEnd Cycle) bool {
	if e.stride != 1 || len(e.due) > 0 || e.Shards() == 0 {
		return false
	}
	serialMin, runnerMin := Never, Never
	for _, i := range e.fheap {
		if i < e.firstRunner {
			if e.wake[i] < serialMin {
				serialMin = e.wake[i]
			}
		} else if e.wake[i] < runnerMin {
			runnerMin = e.wake[i]
		}
	}
	if runnerMin == Never || serialMin <= e.now {
		return false
	}
	base := runnerMin
	if base < e.now {
		base = e.now
	}
	wEnd := base + e.winLook
	if serialMin < wEnd {
		wEnd = serialMin
	}
	if e.winCap > 0 && e.now+e.winCap < wEnd {
		wEnd = e.now + e.winCap
	}
	if wEnd > maxEnd {
		wEnd = maxEnd
	}
	if wEnd <= e.now+1 || runnerMin >= wEnd {
		return false
	}
	e.runWindow(base, wEnd)
	return true
}

// runWindow executes the window [e.now, wEnd). base is the first tick any
// runner can step (max of the earliest armed runner wake and now); the
// stepped region [base, wEnd) is at most lookahead cycles wide.
func (e *ParallelEngine) runWindow(base, wEnd Cycle) {
	e.inWindow = true
	winStart := e.now
	width := int(wEnd - base)
	for k := range e.winMark {
		mark := e.winMark[k]
		if width > len(mark) {
			mark = make([]bool, width)
			e.winMark[k] = mark
		}
		for t := 0; t < width; t++ {
			mark[t] = false
		}
		e.frontier[k] = winStart
		e.pendTick[k] = Never
	}
	maxStepped := winStart - 1
	for {
		// Earliest armed runner wake and earliest pending commit tick.
		armedMin := Never
		for _, i := range e.fheap {
			if i >= e.firstRunner && e.wake[i] < armedMin {
				armedMin = e.wake[i]
			}
		}
		pendMin := Never
		for _, t := range e.pendTick {
			if t < pendMin {
				pendMin = t
			}
		}
		if pendMin != Never && pendMin < armedMin {
			// No runner is armed at or before pendMin, so no shard can still
			// produce ops at that tick: its ops are complete and next in the
			// global (tick, shard) order. A runner armed exactly at pendMin
			// must run first — it may defer ops at that very tick, and
			// committing before it does would replay the tick's ops across
			// two commit calls, out of shard order.
			e.commitWindowTick(pendMin)
			continue
		}
		if armedMin >= wEnd {
			break // window drained: every runner parked at or past the horizon
		}
		if last := e.runWindowPass(wEnd, base); last > maxStepped {
			maxStepped = last
		}
	}
	// Fold the shards' per-window accumulators (busy horizons, shard
	// counters) exactly as the per-tick mode folds them every tick. The
	// deferred logs are empty here — the loop above drained them.
	if e.commit != nil {
		saved := e.now
		e.now = maxStepped
		e.inCommit = true
		e.commit(maxStepped)
		e.inCommit = false
		e.now = saved
	}
	e.inWindow = false

	// Exact cycles-skipped accounting: the per-tick engine would have
	// executed exactly the distinct ticks some runner stepped, and idle-
	// jumped (counting) everything else in [winStart, endNow).
	executed := 0
	for t := 0; t < width; t++ {
		for k := range e.winMark {
			if e.winMark[k][t] {
				executed++
				break
			}
		}
	}
	endNow := wEnd
	if len(e.fheap) == 0 {
		// Everything parked: mirror the per-tick engine, which stops
		// ticking right after the last executed tick (the exact completion
		// cycle the done() contract reports).
		endNow = maxStepped + 1
	}
	e.cyclesSkipped += uint64(endNow-winStart) - uint64(executed)
	e.winEpochs++
	e.winTicks += uint64(endNow - winStart)
	e.prevTick = maxStepped
	e.now = endNow
}

// runWindowPass pops every runner armed before wEnd and runs each, in
// ascending shard order, from its wake to the horizon (or its dirty stop).
// It returns the highest tick stepped in the pass.
func (e *ParallelEngine) runWindowPass(wEnd, base Cycle) (maxLast Cycle) {
	e.dueRunners = e.dueRunners[:0]
	for len(e.fheap) > 0 && e.wake[e.fheap[0]] < wEnd {
		i := e.heapPopMin()
		if i < e.firstRunner {
			panic("sim: serial component armed inside an epoch window — the fabric's declared lookahead was violated")
		}
		e.dueRunners = append(e.dueRunners, i)
	}
	slices.Sort(e.dueRunners)
	maxLast = base - 1
	// Re-arming runner k before runner k+1 steps is safe: a runner's step
	// reads only its own wake and frontier, never the heap.
	e.inPhase = true
	for _, i := range e.dueRunners {
		k := i - e.firstRunner
		last, next, dirty, steps := e.winRunners[k].StepWindow(e.windowFrom(i), wEnd, e.winMark[k], base)
		e.workerSteps[k] += steps
		e.stepsExecuted += steps
		e.frontier[k] = last + 1
		if last > maxLast {
			maxLast = last
		}
		if dirty {
			e.pendTick[k] = last
		} else if next != Never {
			e.arm(i, next)
		}
	}
	e.inPhase = false
	return maxLast
}

// windowFrom is the first tick runner i steps in this pass: its armed
// wake, clamped to the window start and to its own frontier.
func (e *ParallelEngine) windowFrom(i int) Cycle {
	from := e.wake[i]
	if from < e.now {
		from = e.now
	}
	if f := e.frontier[i-e.firstRunner]; from < f {
		from = f
	}
	return from
}

// commitWindowTick replays every pending deferred op produced at tick u,
// in ascending shard order, with the clock rewound to u — reproducing the
// per-tick engine's commit at the end of tick u exactly, timestamps
// included. Committed runners are re-armed from their post-commit
// NextEvent answer (frontier-clamped), mirroring the per-tick re-arm.
func (e *ParallelEngine) commitWindowTick(u Cycle) {
	saved := e.now
	e.now = u
	e.inCommit = true
	if e.commit != nil {
		e.commit(u)
	}
	e.inCommit = false
	for k, t := range e.pendTick {
		if t != u {
			continue
		}
		e.pendTick[k] = Never
		i := e.firstRunner + k
		if nx := e.events[i].NextEvent(u); nx != Never {
			e.arm(i, nx)
		}
	}
	e.now = saved
}

// runPhase steps every due runner, in ascending shard order, on the
// calling goroutine.
func (e *ParallelEngine) runPhase() {
	e.inPhase = true
	for _, i := range e.dueRunners {
		e.components[i].Step(e.now)
		e.workerSteps[i-e.firstRunner]++
	}
	e.inPhase = false
	e.stepsExecuted += uint64(len(e.dueRunners))
}

// settleAll settles per-cycle statistics through the current cycle.
func (e *ParallelEngine) settleAll() {
	for _, s := range e.allSettle {
		s.Settle(e.now)
	}
}

// Run advances until done reports true or limit cycles elapse, with the
// same contract as Engine.Run: done is evaluated before each tick, every
// component is re-armed at entry, idle stretches are skipped against the
// armed-wake minimum and the busy horizon, and all Settlers are settled
// on return.
func (e *ParallelEngine) Run(done func() bool, limit Cycle) (elapsed Cycle, ok bool) {
	start := e.now
	maxEnd := start + limit
	if maxEnd < start {
		maxEnd = Never // overflow: effectively unbounded
	}
	defer e.settleAll()
	if e.resumePending {
		// Resuming from a checkpoint: the restored wake queue is exact;
		// complete any idle jump the pause interrupted before ticking.
		e.resumePending = false
		if !done() {
			e.idleJump(start, limit)
		}
	} else {
		e.gridAnchor = e.now
		e.wakeAllAt(e.now)
	}
	for e.now-start < limit {
		if done() {
			return e.now - start, true
		}
		if !e.winOn || !e.tryWindow(maxEnd) {
			e.tick()
		}
		if done() {
			continue // report the exact completion cycle, not a jump target
		}
		e.idleJump(start, limit)
	}
	if ok = done(); !ok {
		// Paused at the limit: the wake queue is exact, so the next Run
		// (on this engine, or on one restored from a checkpoint taken now)
		// must resume rather than blanket re-arm.
		e.resumePending = true
	}
	return e.now - start, ok
}

// idleJump mirrors Engine.idleJump for the parallel kernel.
func (e *ParallelEngine) idleJump(start, limit Cycle) {
	var t Cycle
	if len(e.fheap) > 0 {
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
			e.wakeAllAt(e.now)
			return
		}
		t = e.busyHorizon
		fromHorizon = true
	}
	clamped := false
	if t-start > limit {
		t = start + limit
		clamped = true
	}
	if e.stride > 1 {
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
	if fromHorizon && !clamped {
		e.wakeAllAt(e.now)
	}
}

// MemberWaker adapts a shard member (a core, a bus) to the engine's
// Waker: wakes and settles aimed at the member are redirected to its
// owning runner. From serial contexts (delivery callbacks, the commit
// phase) it forwards to the engine; from the member's own runner-phase
// step it settles the member in place — the slot has passed, so the
// boundary is now+1, exactly Engine's rule — and leaves arming to the
// runner's post-commit NextEvent poll, which subsumes the wake (the
// member's own NextEvent reflects the mutation that prompted it).
//
// The in-phase settle boundary uses the engine's epoch clock, which inside
// a multi-tick window lags the runner's local tick: machines that attach
// shard members through MemberWaker must not EnableWindows.
type MemberWaker struct {
	Eng    *ParallelEngine
	Runner Component
}

// Now reports the engine's current cycle.
func (w MemberWaker) Now() Cycle { return w.Eng.now }

// SlotNow reports the member's slot clock: the runner's slot, or the
// current cycle during the runner phase (the member is inside its own
// slot at that instant).
func (w MemberWaker) SlotNow(c Component) Cycle {
	if w.Eng.inPhase {
		return w.Eng.now
	}
	return w.Eng.SlotNow(w.Runner)
}

// Wake redirects a member wake to the owning runner (serial contexts) or
// settles the member pre-mutation (runner phase; must be the owning
// shard's runner).
func (w MemberWaker) Wake(c Component, at Cycle) {
	if w.Eng.inPhase {
		if s, ok := c.(Settler); ok {
			s.Settle(w.Eng.now + 1)
		}
		return
	}
	w.Eng.Wake(w.Runner, at)
}

var _ Waker = MemberWaker{}

// Driver is the engine surface machines program against: both Engine and
// ParallelEngine satisfy it, so a machine picks its engine at
// construction from a shard count and runs identically either way.
type Driver interface {
	Register(c Component)
	Run(done func() bool, limit Cycle) (elapsed Cycle, ok bool)
	Now() Cycle
	Wake(c Component, at Cycle)
	NoteBusy(until Cycle)
	BusyHorizon() Cycle
	Counters() Counters
}

var (
	_ Driver = (*Engine)(nil)
	_ Driver = (*ParallelEngine)(nil)
	_ Waker  = (*ParallelEngine)(nil)
)
