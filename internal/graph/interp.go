package graph

import (
	"fmt"
	"math"

	"repro/internal/token"
)

// CellBudget bounds the I-structure cells one run may allocate in total on
// the host-side backends: this interpreter, internal/direct and the
// emulator. An allocation that would pass it faults with "I-structure
// space exhausted" before any cell exists, as the TTDA does past its
// ISCellsPerPE × PEs, so neither a size just under 2³² nor a loop that
// allocates on every iteration can exhaust the host's memory. It is a
// constant, not a knob: it is about 350 times the most any committed
// workload allocates in one run (3,000 cells, the kernel benchmark's
// producer-consumer at its largest size), and it keeps every base
// address within 32 bits.
const CellBudget = 1 << 20

// Interp is the sequential reference interpreter for dataflow programs. It
// executes graphs under idealized dataflow semantics: every enabled
// instruction fires in the wave after its operands arrive, every firing
// takes one time unit, and communication is free. It serves two purposes:
//
//   - a correctness oracle: the cycle-accurate machine and the emulator
//     must compute the same results;
//   - an ideal-parallelism profiler: the wave structure gives the critical
//     path (Depth) and per-wave enabled-instruction counts (Profile) of
//     the program, the upper bound any real machine is compared against.
//
// The interpreter executes a CompiledGraph plan: instruction dispatch is a
// dense kind switch, the context table is a flat array indexed by context
// number, and the waiting-matching store is a table of per-activation
// frames whose slots were assigned statically at compile time — no
// per-activity map operations and no per-record allocations on the hot
// path (frames and context records are recycled storage, the free-list
// discipline internal/core already uses).
type Interp struct {
	cg         *CompiledGraph
	compileErr error

	// context table: a dense array indexed by context number (contexts are
	// allocated monotonically, so index = id; entry 0 is the root context
	// and holds no record). Records are embedded — no per-record
	// allocation — and freeing is a liveness flip.
	nextCtx token.Context
	ctxs    []ctxRecord
	ctxLive int

	// waiting-matching store: per-activation frames of statically-assigned
	// match slots (see frameTable), replacing the per-activity hash map.
	frames frameTable
	// parked counts slots currently holding exactly one operand — the
	// unmatched-token population a clean termination requires to be zero.
	parked int

	// I-structure storage
	store *idealIStore

	// wave-structured worklists
	current []tok
	next    []tok

	// results returned on context 0
	results []token.Value

	// context reclamation accounting
	ctxFreed uint64
	ctxPeak  int

	// statistics
	fired    uint64
	tokens   uint64
	profile  []int
	maxSteps uint64
}

type tok struct {
	act   token.ActivityName
	port  uint8
	value token.Value
}

type partial struct {
	vals [2]token.Value
	have [2]bool
}

type ctxRecord struct {
	block       BlockID // code block this context executes
	parent      token.ActivityName
	parentBlock BlockID
	returnDests []CDest
	// reclamation state: the record's only consumers are one SendArg/L
	// lookup per callee entry and one Return lookup. Dataflow calls are
	// non-strict — a function may return before all its arguments arrive —
	// so the record is freed only when both conditions hold.
	argsSent int
	returned bool
	live     bool
}

// idealIStore is the interpreter's untimed I-structure storage: presence
// bits and deferred read lists with zero access cost.
type idealIStore struct {
	cells    []idealCell
	deferred int // currently outstanding deferred reads
	deferMax int
	deferObs uint64 // total reads that had to be deferred
}

type idealCell struct {
	present  bool
	value    token.Value
	waiters  []CDest
	waitActs []token.ActivityName
}

// NewInterp returns an interpreter for prog, which must be valid. The
// program is compiled to an execution plan; a compile failure surfaces
// from Run.
func NewInterp(prog *Program) *Interp {
	cg, err := Compile(prog)
	it := NewInterpPlan(cg)
	it.compileErr = err
	return it
}

// NewInterpPlan returns an interpreter executing an already-compiled plan,
// sharing it with other consumers (compile once, run many).
func NewInterpPlan(cg *CompiledGraph) *Interp {
	return &Interp{
		cg:       cg,
		nextCtx:  1,
		store:    &idealIStore{},
		maxSteps: 100_000_000,
	}
}

// SetMaxSteps bounds the number of instruction firings before Run reports
// non-termination.
func (it *Interp) SetMaxSteps(n uint64) { it.maxSteps = n }

// Run executes the program on the given entry-block arguments and returns
// the values delivered by OpReturn in context 0, in delivery order.
func (it *Interp) Run(args ...token.Value) ([]token.Value, error) {
	if it.compileErr != nil {
		return nil, it.compileErr
	}
	entry := it.cg.Block(0)
	if len(args) != len(entry.Entries) {
		return nil, fmt.Errorf("graph: program %q wants %d arguments, got %d",
			it.cg.Prog.Name, len(entry.Entries), len(args))
	}
	for j, v := range args {
		it.inject(token.ActivityName{Context: 0, CodeBlock: uint16(entry.ID), Statement: entry.Entries[j], Initiation: 1}, 0, v)
	}
	for len(it.current) > 0 || len(it.next) > 0 {
		if len(it.current) == 0 {
			it.current, it.next = it.next, it.current[:0]
			continue
		}
		it.profile = append(it.profile, 0)
		wave := it.current
		for _, t := range wave {
			if err := it.deliver(t); err != nil {
				return nil, err
			}
		}
		// deliver appends only to next, so the processed wave's buffer
		// becomes next wave's spare: the two lists ping-pong for the run.
		it.current = wave[:0]
		if it.fired > it.maxSteps {
			return nil, fmt.Errorf("graph: program %q exceeded %d firings", it.cg.Prog.Name, it.maxSteps)
		}
	}
	if it.parked != 0 {
		return nil, fmt.Errorf("graph: program %q finished with %d unmatched tokens in the waiting store", it.cg.Prog.Name, it.parked)
	}
	if it.store.deferred != 0 {
		return nil, fmt.Errorf("graph: program %q deadlocked: %d deferred reads were never satisfied", it.cg.Prog.Name, it.store.deferred)
	}
	return it.results, nil
}

// Fired returns the number of instruction firings.
func (it *Interp) Fired() uint64 { return it.fired }

// Tokens returns the number of tokens produced.
func (it *Interp) Tokens() uint64 { return it.tokens }

// Depth returns the critical path length in unit-time waves.
func (it *Interp) Depth() int { return len(it.profile) }

// Profile returns the number of instruction firings per wave: the ideal
// parallelism profile of the program.
func (it *Interp) Profile() []int { return it.profile }

// MaxParallelism returns the widest wave.
func (it *Interp) MaxParallelism() int {
	m := 0
	for _, w := range it.profile {
		if w > m {
			m = w
		}
	}
	return m
}

// DeferredReads returns how many reads arrived before their writes (total),
// and the peak number outstanding at once.
func (it *Interp) DeferredReads() (total uint64, peak int) {
	return it.store.deferObs, it.store.deferMax
}

// ctx returns the live record for context u, or nil.
func (it *Interp) ctx(u token.Context) *ctxRecord {
	if u < 1 || uint64(u) >= uint64(len(it.ctxs)) {
		return nil
	}
	rec := &it.ctxs[u]
	if !rec.live {
		return nil
	}
	return rec
}

// maybeFreeCtx reclaims a record once its return fired and all its callee
// entries received their arguments.
func (it *Interp) maybeFreeCtx(rec *ctxRecord) {
	if rec.returned && rec.argsSent >= len(it.cg.Block(rec.block).Entries) {
		rec.live = false
		it.ctxLive--
		it.ctxFreed++
	}
}

// Contexts reports context-manager accounting: how many invocation records
// were allocated in total, how many were reclaimed at their RETURN/L-1, and
// the peak number live at once — the finite resource a real manager must
// provide.
func (it *Interp) Contexts() (allocated uint64, freed uint64, peak int) {
	return uint64(it.nextCtx - 1), it.ctxFreed, it.ctxPeak
}

// Structure returns the element values of an I-structure after execution.
// Cells never written report token.Nil().
func (it *Interp) Structure(r token.Ref) []token.Value {
	out := make([]token.Value, 0, r.Len)
	for a := uint64(r.Base); a < uint64(r.Base)+uint64(r.Len) && a < uint64(len(it.store.cells)); a++ {
		c := it.store.cells[a]
		if c.present {
			out = append(out, c.value)
		} else {
			out = append(out, token.Nil())
		}
	}
	return out
}

// inject schedules a token for the next wave.
func (it *Interp) inject(act token.ActivityName, port uint8, v token.Value) {
	it.tokens++
	it.next = append(it.next, tok{act: act, port: port, value: v})
}

// deliver routes one token: either fires its instruction or parks it in
// its activation frame's statically-assigned match slot.
func (it *Interp) deliver(t tok) error {
	cb := &it.cg.Blocks[t.act.CodeBlock]
	in := &cb.Instrs[t.act.Statement]
	if in.NT <= 1 {
		var vals [2]token.Value
		vals[t.port] = t.value
		return it.fire(in, t.act, vals)
	}
	fr, p := it.frames.slot(t.act, cb, in.MatchSlot)
	if p.have[t.port] {
		return fmt.Errorf("graph: duplicate token at %s port %d", t.act, t.port)
	}
	if !p.have[0] && !p.have[1] {
		fr.occupied++
		it.parked++
	}
	p.vals[t.port] = t.value
	p.have[t.port] = true
	if p.have[0] && p.have[1] {
		vals := p.vals
		*p = partial{}
		fr.occupied--
		it.parked--
		if fr.occupied == 0 {
			it.frames.release(fr)
		}
		return it.fire(in, t.act, vals)
	}
	return nil
}

// operands assembles the full operand vector, merging literals.
func operands(in *CInstr, vals [2]token.Value) [2]token.Value {
	if in.HasLit {
		vals[in.LitPort] = in.Lit
	}
	return vals
}

func (it *Interp) fire(in *CInstr, act token.ActivityName, vals [2]token.Value) error {
	it.fired++
	if n := len(it.profile); n > 0 {
		it.profile[n-1]++
	}
	ops := operands(in, vals)
	emit := func(dests []CDest, v token.Value) {
		for _, d := range dests {
			it.inject(token.ActivityName{
				Context:    act.Context,
				CodeBlock:  act.CodeBlock,
				Statement:  d.Stmt,
				Initiation: act.Initiation,
			}, d.Port, v)
		}
	}

	switch in.Kind {
	case KindPure:
		v, err := Eval(in.Op, ops[0], ops[1])
		if err != nil {
			return fmt.Errorf("%v at %s %s", err, act, in.Op)
		}
		emit(in.Dests, v)
	case KindSwitch:
		c, err := ops[1].AsBool()
		if err != nil {
			return fmt.Errorf("switch control at %s: %v", act, err)
		}
		if c {
			emit(in.Dests, ops[0])
		} else {
			emit(in.DestsFalse, ops[0])
		}
	case KindGetContext:
		u := it.nextCtx
		it.nextCtx++
		for uint64(len(it.ctxs)) <= uint64(u) {
			it.ctxs = append(it.ctxs, ctxRecord{})
		}
		it.ctxs[u] = ctxRecord{
			block:       in.Target,
			parent:      act,
			parentBlock: BlockID(act.CodeBlock),
			returnDests: in.RetDests,
			live:        true,
		}
		it.ctxLive++
		if it.ctxLive > it.ctxPeak {
			it.ctxPeak = it.ctxLive
		}
		emit(in.Dests, token.Int(int64(u)))
	case KindSendArg:
		h, err := ops[0].AsInt()
		if err != nil {
			return fmt.Errorf("%s handle at %s: %v", in.Op, act, err)
		}
		rec := it.ctx(token.Context(h))
		if rec == nil {
			return fmt.Errorf("%s at %s: unknown context %d", in.Op, act, h)
		}
		callee := it.cg.Block(rec.block)
		if int(in.ArgIndex) >= len(callee.Entries) {
			return fmt.Errorf("%s at %s: arg %d exceeds %q entries", in.Op, act, in.ArgIndex, callee.Name)
		}
		rec.argsSent++
		it.maybeFreeCtx(rec)
		it.inject(token.ActivityName{
			Context:    token.Context(h),
			CodeBlock:  uint16(rec.block),
			Statement:  callee.Entries[in.ArgIndex],
			Initiation: 1,
		}, 0, ops[1])
	case KindD:
		for _, d := range in.Dests {
			it.inject(token.ActivityName{
				Context:    act.Context,
				CodeBlock:  act.CodeBlock,
				Statement:  d.Stmt,
				Initiation: act.Initiation + 1,
			}, d.Port, ops[0])
		}
	case KindDInv:
		for _, d := range in.Dests {
			it.inject(token.ActivityName{
				Context:    act.Context,
				CodeBlock:  act.CodeBlock,
				Statement:  d.Stmt,
				Initiation: 1,
			}, d.Port, ops[0])
		}
	case KindReturn:
		if act.Context == 0 {
			it.results = append(it.results, ops[0])
			return nil
		}
		rec := it.ctx(act.Context)
		if rec == nil {
			return fmt.Errorf("%s at %s: unknown context", in.Op, act)
		}
		rec.returned = true
		it.maybeFreeCtx(rec)
		for _, d := range rec.returnDests {
			it.inject(token.ActivityName{
				Context:    rec.parent.Context,
				CodeBlock:  uint16(rec.parentBlock),
				Statement:  d.Stmt,
				Initiation: rec.parent.Initiation,
			}, d.Port, ops[0])
		}
	case KindAllocate:
		n, err := ops[0].AsInt()
		if err != nil || n < 0 || n > math.MaxUint32 {
			return fmt.Errorf("allocate at %s: bad size %s", act, ops[0])
		}
		base := len(it.store.cells)
		if n > int64(CellBudget-base) {
			return fmt.Errorf("allocate at %s: I-structure space exhausted (%d cells, limit %d)", act, n, CellBudget)
		}
		it.store.cells = append(it.store.cells, make([]idealCell, n)...)
		emit(in.Dests, token.NewRef(token.Ref{Base: uint32(base), Len: uint32(n)}))
	case KindFetch:
		addr, err := ops[0].AsInt()
		if err != nil || addr < 0 || int(addr) >= len(it.store.cells) {
			return fmt.Errorf("fetch at %s: bad address %s", act, ops[0])
		}
		cell := &it.store.cells[addr]
		d := in.Dests[0]
		if cell.present {
			emit(in.Dests, cell.value)
			return nil
		}
		cell.waiters = append(cell.waiters, d)
		cell.waitActs = append(cell.waitActs, act)
		it.store.deferred++
		it.store.deferObs++
		if it.store.deferred > it.store.deferMax {
			it.store.deferMax = it.store.deferred
		}
	case KindStore:
		addr, err := ops[0].AsInt()
		if err != nil || addr < 0 || int(addr) >= len(it.store.cells) {
			return fmt.Errorf("store at %s: bad address %s", act, ops[0])
		}
		cell := &it.store.cells[addr]
		if cell.present {
			return fmt.Errorf("store at %s: address %d already written (single-assignment violation)", act, addr)
		}
		cell.present = true
		cell.value = ops[1]
		for i, w := range cell.waiters {
			wact := cell.waitActs[i]
			it.inject(token.ActivityName{
				Context:    wact.Context,
				CodeBlock:  wact.CodeBlock,
				Statement:  w.Stmt,
				Initiation: wact.Initiation,
			}, w.Port, ops[1])
		}
		it.store.deferred -= len(cell.waiters)
		cell.waiters, cell.waitActs = nil, nil
	case KindSink, KindNop:
		// absorbed
	default:
		return fmt.Errorf("graph: interpreter cannot execute %s", in.Op)
	}
	return nil
}
