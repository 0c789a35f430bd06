package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/istructure"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/token"
)

// Machine is a complete tagged-token dataflow machine: PEs, network,
// I-structure modules, context manager, and structure allocator.
//
// The run loop is event-driven: components sit on active lists only while
// they hold work, quiescence detection is O(1), and simulated time jumps
// over stretches where every unit is merely waiting out a busy timer or a
// packet flight. Cycle counts and statistics are bit-identical to stepping
// every component on every cycle — the determinism contract the
// experiments (and the golden-stats test) depend on.
type Machine struct {
	cfg  Config
	prog *graph.Program
	// plan is the ahead-of-time compiled execution plan (graph.Compile)
	// the pipeline executes: dispatch kinds, literals, and destination nt
	// fields all come from it, never from the IR. It is read-only, so
	// machines may share one. planErr keeps a compile failure for Run.
	plan    *graph.CompiledGraph
	planErr error
	// opTimes is Config.OpTime sampled per opcode at construction, so the
	// ALU issue path indexes a dense table instead of calling a closure.
	opTimes [graph.NumOpcodes]sim.Cycle
	pes     []*PE
	net     network.Network
	is      []*istructure.Module

	// Active lists: ids of components that currently hold queued work,
	// kept sorted ascending so sweeps visit components in the same fixed
	// order as stepping every component (part of the determinism
	// contract).
	peQ      idQueue
	peActive []bool
	isQ      idQueue
	isActive []bool

	// engine drives the run with drv as its one component; its busy
	// horizon (the latest ALU/controller busy-until cycle ever scheduled)
	// makes quiescence a comparison instead of a machine-wide scan.
	engine *sim.Engine
	drv    *machineDriver

	// context manager state (conceptually distributed; centralized here
	// with its cost charged through the PE controller's d=2 path)
	nextCtx token.Context
	// ctxs is indexed directly by context number (slot 0 is the top-level
	// pseudo-context and stays nil): context numbers are handed out
	// monotonically, so a dense slice replaces a map on the SEND-ARG/RETURN
	// path. A freed context leaves a nil slot; records are recycled via
	// ctxFree.
	ctxs     []*graph.Invocation
	ctxLive  int
	ctxFree  []*graph.Invocation // recycled invocation records
	ctxFreed uint64
	ctxPeak  int

	// I-structure allocator: bump pointer over the interleaved space
	nextAddr uint32
	isLimit  uint32

	results []token.Value
	runErr  error
	now     sim.Cycle
	stats   MachineStats

	// started marks a run in progress: entry arguments are injected only
	// on the first Run call, so a run paused at a cycle limit (or restored
	// from a checkpoint, which sets the flag) resumes instead of
	// restarting. runStart anchors the Cycles statistic across the split.
	started  bool
	runStart sim.Cycle
}

// isRequest is the payload of a d=1 network packet.
type isRequest struct {
	op      istructure.Op
	addr    uint32
	value   token.Value
	replyTo replyTag
}

// replyTag addresses the consumer of a FETCH response.
type replyTag struct {
	activity token.ActivityName
	port     uint8
	nt       uint8
}

// NewMachine builds a machine for the given program, compiling its
// execution plan (graph.Compile) at construction. A program that fails to
// compile still yields a machine; its Run reports the error.
func NewMachine(cfg Config, prog *graph.Program) *Machine {
	plan, err := graph.Compile(prog)
	m := newMachine(cfg, prog)
	m.plan, m.planErr = plan, err
	return m
}

// NewMachineWithPlan builds a machine that executes a pre-compiled plan
// (graph.Compile), amortizing compilation across many runs of the same
// program. The machine only reads the plan, so any number of machines,
// running concurrently, may share one.
func NewMachineWithPlan(cfg Config, plan *graph.CompiledGraph) *Machine {
	m := newMachine(cfg, plan.Prog)
	m.plan = plan
	return m
}

// newMachine builds everything but the plan.
func newMachine(cfg Config, prog *graph.Program) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:      cfg,
		prog:     prog,
		nextCtx:  1,
		ctxs:     make([]*graph.Invocation, 1, 64),
		isLimit:  isCellLimit(cfg.PEs),
		peActive: make([]bool, cfg.PEs),
		isActive: make([]bool, cfg.PEs),
	}
	for op := graph.Opcode(0); int(op) < graph.NumOpcodes; op++ {
		m.opTimes[op] = cfg.OpTime(op)
	}
	m.net = cfg.Net
	if m.net == nil {
		m.net = network.NewIdeal(cfg.PEs, cfg.NetLatency)
	}
	if m.net.Ports() != cfg.PEs {
		panic(fmt.Sprintf("core: network has %d ports for %d PEs", m.net.Ports(), cfg.PEs))
	}
	m.net.SetDelivery(m.deliver)
	m.pes = make([]*PE, cfg.PEs)
	m.is = make([]*istructure.Module, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		m.pes[i] = newPE(m, i)
		i := i
		m.is[i] = istructure.New(ISCellsPerPE, func(r istructure.Response) { m.isRespond(i, r) })
	}
	m.engine = sim.NewEngine()
	m.drv = &machineDriver{m: m, isNext: sim.Never, peNext: sim.Never}
	m.engine.Register(m.drv)
	return m
}

// idQueue is one active list: component ids holding work, sorted ascending
// at the next sweep (the dirty flag defers the sort).
type idQueue struct {
	ids   []int
	dirty bool
}

func (q *idQueue) push(id int) {
	if n := len(q.ids); n > 0 && id < q.ids[n-1] {
		q.dirty = true
	}
	q.ids = append(q.ids, id)
}

// machineDriver drives the whole machine as one engine component: the
// interconnect, the I-structure sweep, and the PE sweep, in the fixed
// order the previous three separate drivers had. It pins machine time to
// the engine clock at the top of every tick (PE statistics and traces
// sample m.now mid-step). Merging the drivers keeps every mid-tick wake
// (a PE waking a module after the module sweep ran) internal to one
// component, so the cached NextEvent answer is exactly the min the old
// per-driver poll computed. A cached sweep answer can be stale when a PE
// wakes a module later in the same tick (a local d=1 bypass fired after
// sweepIS ran); the engine still never jumps past the module's work,
// because the firing PE's own next-work answer pins the tick at least
// through the next cycle.
type machineDriver struct {
	m      *Machine
	isNext sim.Cycle
	peNext sim.Cycle
	// inStep marks the window in which a wake must fold into the cached
	// answers: a PE's local d=1 bypass wakes its module after the module
	// sweep already ran, and without the fold the module's next-cycle
	// work would be invisible to NextEvent.
	inStep bool
}

func (d *machineDriver) Step(now sim.Cycle) {
	d.inStep = true
	d.m.now = now
	d.m.net.Step(now)
	d.isNext = d.m.sweepISQ(now, &d.m.isQ)
	d.peNext = d.m.sweepPEsQ(now, &d.m.peQ)
	d.inStep = false
}

func (d *machineDriver) NextEvent(now sim.Cycle) sim.Cycle {
	next := d.isNext
	if d.peNext < next {
		next = d.peNext
	}
	if !d.m.net.Idle() {
		if t := d.m.net.NextEvent(now); t < next {
			next = t
		}
	}
	return next
}

// Now returns the current cycle.
func (m *Machine) Now() sim.Cycle { return m.now }

// wakePE puts a PE on its active list.
func (m *Machine) wakePE(id int) {
	if m.peActive[id] {
		return
	}
	m.peActive[id] = true
	m.peQ.push(id)
}

// wakeIS puts an I-structure module on its active list. A wake landing
// while the driving sweep is mid-step (a PE's local d=1 bypass, after the
// module sweep already ran this cycle) folds the module's next-cycle work
// into the cached next-event answer, keeping NextEvent honest.
func (m *Machine) wakeIS(id int) {
	if !m.isActive[id] {
		m.isActive[id] = true
		m.isQ.push(id)
	}
	if d := m.drv; d.inStep {
		if t := m.now + 1; t < d.isNext {
			d.isNext = t
		}
	}
}

// noteBusy extends the machine-wide busy horizon. Busy-until values only
// grow per unit, so the engine's running maximum equals the max over the
// current values.
func (m *Machine) noteBusy(t sim.Cycle) { m.engine.NoteBusy(t) }

// deliver routes a network packet arriving at its destination PE, inside
// the machine driver's step.
func (m *Machine) deliver(p *network.Packet) {
	if p.HasTok {
		m.pes[p.Dst].accept(&p.Tok)
		m.pes[p.Dst].putPkt(p)
		return
	}
	switch payload := p.Payload.(type) {
	case isRequest:
		if err := m.enqueueIS(p.Dst, payload); err != nil {
			m.fail(err)
		}
		m.pes[p.Dst].putPkt(p)
	default:
		panic(fmt.Sprintf("core: unknown network payload %T", p.Payload))
	}
}

// homeModule maps a global I-structure address to its PE.
func (m *Machine) homeModule(addr uint32) int { return int(addr) % m.cfg.PEs }

// localAddr converts a global address to a module-local one.
func (m *Machine) localAddr(addr uint32) uint32 { return addr / uint32(m.cfg.PEs) }

// enqueueIS hands a d=1 request to the I-structure module at pe, returning
// the module's refusal as an error.
func (m *Machine) enqueueIS(pe int, r isRequest) error {
	req := istructure.Request{
		Op:    r.op,
		Addr:  m.localAddr(r.addr),
		Value: r.value,
	}
	if r.op == istructure.OpRead {
		req.ReplyTo = r.replyTo
	}
	m.wakeIS(pe)
	if err := m.is[pe].Enqueue(req); err != nil {
		return fmt.Errorf("core: I-structure request failed: %v", err)
	}
	return nil
}

// isRespond forwards a FETCH response as a d=0 token from the module's PE.
func (m *Machine) isRespond(pe int, r istructure.Response) {
	rt := r.ReplyTo.(replyTag)
	m.pes[pe].sendToken(rt.activity, rt.nt, rt.port, r.Value.(token.Value))
	m.stats.ISResponses++
}

// isCellLimit is the allocator's ceiling for a machine of pes PEs:
// ISCellsPerPE × pes cells, computed in 64 bits and capped at
// math.MaxUint32, so neither the product nor the bump pointer below it
// wraps past 2³².
func isCellLimit(pes int) uint32 {
	return uint32(min(uint64(ISCellsPerPE)*uint64(pes), math.MaxUint32))
}

// allocate reserves n I-structure cells and returns the base address.
func (m *Machine) allocate(n uint32) (uint32, error) {
	if n > m.isLimit-m.nextAddr {
		return 0, fmt.Errorf("core: I-structure space exhausted (%d cells, limit %d)", n, m.isLimit)
	}
	base := m.nextAddr
	m.nextAddr += n
	return base, nil
}

// allocCtx reserves the next context number and a recycled record.
func (m *Machine) allocCtx() (token.Context, *graph.Invocation) {
	u := m.nextCtx
	m.nextCtx++
	var rec *graph.Invocation
	if n := len(m.ctxFree); n > 0 {
		rec = m.ctxFree[n-1]
		m.ctxFree = m.ctxFree[:n-1]
		*rec = graph.Invocation{}
	} else {
		rec = &graph.Invocation{}
	}
	m.ctxs = append(m.ctxs, rec) // index u == old len(m.ctxs)
	m.ctxLive++
	if m.ctxLive > m.ctxPeak {
		m.ctxPeak = m.ctxLive
	}
	return u, rec
}

// ctxLookup resolves a context number to its live invocation record, or nil
// when the number was never allocated or already reclaimed. Handles arrive
// in token values, so the bound check guards against corrupt programs.
func (m *Machine) ctxLookup(u token.Context) *graph.Invocation {
	if uint64(u) >= uint64(len(m.ctxs)) {
		return nil
	}
	return m.ctxs[u]
}

// getContext allocates a fresh invocation context.
func (m *Machine) getContext(target graph.BlockID, parent token.ActivityName, returnDests []graph.CDest) token.Context {
	u, rec := m.allocCtx()
	rec.Block, rec.Parent, rec.ReturnDests = target, parent, returnDests
	return u
}

// maybeFreeContext reclaims an invocation record once it is Done. The
// record goes on a free list for reuse; callers must not touch rec
// afterwards.
func (m *Machine) maybeFreeContext(u token.Context, rec *graph.Invocation) {
	if rec.Done(m.plan) {
		m.ctxs[u] = nil
		m.ctxLive--
		m.ctxFree = append(m.ctxFree, rec)
		m.ctxFreed++
	}
}

// fail records the first execution fault; the run loop stops on it.
func (m *Machine) fail(err error) {
	if m.runErr == nil {
		m.runErr = err
	}
}

// failIS records module id's single-assignment fault under the program's
// global address.
func (m *Machine) failIS(id int, local uint32) {
	m.fail(fmt.Errorf("core: store: address %d already written (single-assignment violation)", local*uint32(m.cfg.PEs)+uint32(id)))
}

// quiescent reports whether no work remains anywhere in the machine. With
// active lists and the busy horizon this is O(1) instead of a scan over
// every PE and module.
func (m *Machine) quiescent() bool {
	return len(m.peQ.ids) == 0 && len(m.isQ.ids) == 0 &&
		m.net.Pending() == 0 && m.now >= m.engine.BusyHorizon()
}

// sweepISQ steps the listed active I-structure modules in ascending id
// order, returning the earliest future cycle any of them can act.
func (m *Machine) sweepISQ(now sim.Cycle, q *idQueue) sim.Cycle {
	if len(q.ids) == 0 {
		return sim.Never
	}
	if q.dirty {
		sort.Ints(q.ids)
		q.dirty = false
	}
	next := sim.Never
	keep := q.ids[:0]
	for _, id := range q.ids {
		mod := m.is[id]
		if t := mod.NextEvent(now); t > now {
			keep = append(keep, id)
			if t < next {
				next = t
			}
			continue
		}
		mod.Step(now)
		if a, bad := mod.Fault(); bad {
			m.failIS(id, a)
		}
		if mod.Idle() {
			m.isActive[id] = false
			continue
		}
		keep = append(keep, id)
		if t := mod.NextEvent(now + 1); t < next {
			next = t
		}
	}
	q.ids = keep
	return next
}

// sweepPEsQ steps the listed active PEs in ascending id order, returning
// the earliest future cycle any of them can act.
func (m *Machine) sweepPEsQ(now sim.Cycle, q *idQueue) sim.Cycle {
	if len(q.ids) == 0 {
		return sim.Never
	}
	if q.dirty {
		sort.Ints(q.ids)
		q.dirty = false
	}
	next := sim.Never
	keep := q.ids[:0]
	for _, id := range q.ids {
		pe := m.pes[id]
		t := pe.nextWork(now)
		if t == sim.Never {
			// No stage queue holds an item. No run lists such a PE,
			// but a restored checkpoint may; dropping it keeps the
			// machine from waiting on it forever.
			m.peActive[id] = false
			continue
		}
		if t <= now {
			pe.step(now)
			if t = pe.nextWork(now + 1); t == sim.Never {
				m.peActive[id] = false
				continue
			}
		}
		keep = append(keep, id)
		if t < next {
			next = t
		}
	}
	q.ids = keep
	return next
}

// Run injects the entry arguments and executes to quiescence on the shared
// event-driven engine — network, I-structure modules, then PEs, in fixed
// registration order for determinism, with simulated time jumping over any
// run of cycles in which every component would provably no-op. It returns
// the program results (values returned in context 0).
//
// A run that hits the cycle limit returns a sim.ErrLimit pause and leaves
// the machine intact: calling Run again (or checkpointing with
// sim.Checkpoint and restoring into a fresh machine) continues from the
// pause cycle, and the completed split run is bit-identical to an
// uninterrupted one. Arguments are injected only on the first call of a
// run; a continuation ignores them.
func (m *Machine) Run(limit sim.Cycle, args ...token.Value) ([]token.Value, error) {
	if m.planErr != nil {
		return nil, m.planErr
	}
	if !m.started {
		entry := m.plan.Block(0)
		if len(args) != len(entry.Entries) {
			return nil, fmt.Errorf("core: program %q wants %d arguments, got %d", m.prog.Name, len(entry.Entries), len(args))
		}
		for j, v := range args {
			act := token.ActivityName{Context: 0, CodeBlock: uint16(entry.ID), Statement: entry.Entries[j], Initiation: 1}
			t := token.Token{
				Class: token.Normal,
				Tag:   token.Tag{Activity: act},
				NT:    entry.EntryNT[j],
				Port:  0,
				Value: v,
			}
			t.PE = t.Tag.HomePE(m.cfg.PEs)
			m.pes[t.PE].accept(&t)
		}
		m.started = true
		m.runStart = m.now
	}
	_, ok := m.engine.Run(func() bool {
		m.now = m.engine.Now()
		return m.runErr != nil || m.quiescent()
	}, limit)
	m.now = m.engine.Now()
	if m.runErr != nil {
		return nil, m.runErr
	}
	if !ok {
		return nil, sim.Limitf("core: program %q did not finish within %d cycles", m.prog.Name, limit)
	}
	m.started = false
	m.finishStats()
	if err := m.checkClean(); err != nil {
		return nil, err
	}
	m.stats.Cycles = uint64(m.now - m.runStart)
	return m.results, nil
}

// finishStats settles every lazily-accounted statistic through the final
// cycle, so per-PE and per-module numbers match per-cycle stepping.
func (m *Machine) finishStats() {
	for _, pe := range m.pes {
		pe.finishStats(m.now)
	}
	for _, mod := range m.is {
		mod.FinishStats(m.now)
	}
}

// checkClean verifies quiescence is completion, not deadlock: no tokens
// stranded in waiting-matching stores and no unsatisfied deferred reads.
func (m *Machine) checkClean() error {
	stranded := 0
	for _, pe := range m.pes {
		stranded += pe.waiting.Len()
	}
	if stranded != 0 {
		return fmt.Errorf("core: program %q halted with %d unmatched tokens in waiting-matching stores", m.prog.Name, stranded)
	}
	deferred := 0
	for _, mod := range m.is {
		deferred += mod.OutstandingDeferred()
	}
	if deferred != 0 {
		return fmt.Errorf("core: program %q deadlocked: %d deferred reads never satisfied", m.prog.Name, deferred)
	}
	return nil
}

// Network returns the machine's interconnect (for statistics).
func (m *Machine) Network() network.Network { return m.net }

// Engine exposes the simulation engine (scheduling counters).
func (m *Machine) Engine() *sim.Engine { return m.engine }

// PEStats returns per-PE statistics.
func (m *Machine) PEStats() []*PEStats {
	out := make([]*PEStats, len(m.pes))
	for i, pe := range m.pes {
		out[i] = &pe.stats
	}
	return out
}

// Stats returns machine-level statistics.
func (m *Machine) Stats() *MachineStats { return &m.stats }
