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

// CellAddr is the address rule of every backend that runs MiniID: the
// TTDA, this interpreter, internal/direct and the emulator. A FETCH or
// STORE address is an integer in [0, top), where top is the first cell the
// run has not allocated. The check is made on the operand's full value,
// before any narrowing to 32 bits, so 2³²+k never names cell k. ok is
// false for any other operand (a negative one wraps past every top), and
// the caller faults with "bad address" without using addr.
func CellAddr(v token.Value, top uint32) (addr uint32, ok bool) {
	a, err := v.AsInt()
	return uint32(a), err == nil && uint64(a) < uint64(top)
}

// ContextHandle is the handle rule of every backend that runs MiniID: the
// TTDA, this interpreter, internal/direct and the emulator. A SEND-ARG
// handle can name a context only if it lies in [0, 2³²), the width of a
// context name. The check is made on the handle's full value, before any
// narrowing to 32 bits, so 2³²+u never names context u. ok is false for
// any other handle, and the caller faults with "unknown context h".
func ContextHandle(h int64) (u token.Context, ok bool) {
	return token.Context(h), h >= 0 && h <= math.MaxUint32
}

// AllocSize is the allocation rule of the host-side backends: this
// interpreter, internal/direct and the emulator. An ALLOCATE size must be
// an integer in [0, 2³²), since a structure reference holds a 32-bit
// length, and must fit within CellBudget beside the top cells already
// allocated. The fault has no prefix; each caller adds its own. The TTDA
// checks its own limit, ISCellsPerPE × PEs.
func AllocSize(v token.Value, top uint32) (uint32, error) {
	n, err := v.AsInt()
	if err != nil || n < 0 || n > math.MaxUint32 {
		return 0, fmt.Errorf("bad size %s", v)
	}
	if n > int64(CellBudget-top) {
		return 0, fmt.Errorf("I-structure space exhausted (%d cells, limit %d)", n, CellBudget)
	}
	return uint32(n), nil
}

// ContextBudget bounds the invocation contexts one run may create in total
// on every backend that runs MiniID: the TTDA, this interpreter,
// internal/direct and the emulator. A GET-CONTEXT past it faults with
// "context space exhausted" before the context exists, so neither a
// recursion that never returns nor a loop that calls on every iteration
// can exhaust the host's memory. Like CellBudget it is a constant, not a
// knob: it is about 12 times the most any committed workload creates in
// one run (21,891 contexts, fib(20)).
const ContextBudget = 1 << 18

// Invocation is the invocation record of Section 2.2.2's context manager,
// one per GET-CONTEXT, and every backend that runs MiniID keeps it: the
// TTDA, this interpreter, internal/direct and the emulator. Parent is the
// GET-CONTEXT's activity, so a RETURN retags its value to Parent's
// context, code block and initiation and sends it to ReturnDests.
type Invocation struct {
	Block       BlockID // the code block the context executes
	Returned    bool    // the callee's RETURN has fired
	Parent      token.ActivityName
	ReturnDests []CDest
	ArgsSent    int // arguments sent to the callee's entries so far
}

// Done is the reclamation rule: a record may be freed once its RETURN
// fired and every entry of its block received an argument. Dataflow calls
// are non-strict, so a callee may return before all its arguments arrive,
// and the record must outlive that return until the last SEND-ARG has
// looked it up.
func (inv *Invocation) Done(cg *CompiledGraph) bool {
	return inv.Returned && inv.ArgsSent >= len(cg.Blocks[inv.Block].Entries)
}

// Interp is the sequential reference interpreter for dataflow programs. It
// executes graphs under idealized dataflow semantics: every enabled
// instruction fires in the wave after its operands arrive, every firing
// takes one time unit, and communication is free. It serves two purposes:
//
//   - a correctness oracle: the cycle-accurate machine and the emulator
//     must compute the same results;
//   - an ideal-parallelism profiler: the wave structure gives the critical
//     path (Depth) and the widest wave (MaxParallelism) of the program,
//     the upper bound any real machine is compared against.
//
// The interpreter executes a CompiledGraph plan: instruction dispatch is a
// dense kind switch, the context table is a flat array indexed by context
// number, and operands pair in a MatchTable, the waiting-matching store
// the TTDA and the emulator use too.
type Interp struct {
	cg         *CompiledGraph
	compileErr error

	// context table: a dense array indexed by context number (contexts are
	// allocated monotonically, so index = id; entry 0 is the root context
	// and holds no record). Records are embedded — no per-record
	// allocation — and freeing is a liveness flip.
	nextCtx token.Context
	ctxs    []ctxRecord

	// waiting-matching store; a clean termination leaves it empty
	waiting MatchTable

	// I-structure storage
	store *idealIStore

	// wave-structured worklists
	current []tok
	next    []tok

	// results returned on context 0
	results []token.Value

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

// ctxRecord is an invocation record and whether it is still live.
type ctxRecord struct {
	Invocation
	live bool
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
	if n := it.waiting.Len(); n != 0 {
		return nil, fmt.Errorf("graph: program %q finished with %d unmatched tokens in the waiting store", it.cg.Prog.Name, n)
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

// deliver routes one token: either fires its instruction or matches it
// in the waiting store.
func (it *Interp) deliver(t tok) error {
	in := &it.cg.Blocks[t.act.CodeBlock].Instrs[t.act.Statement]
	if in.NT <= 1 {
		var vals [2]token.Value
		vals[t.port] = t.value
		return it.fire(in, t.act, vals)
	}
	vals, out := it.waiting.Match(t.act, t.port, t.value)
	switch out {
	case Matched:
		return it.fire(in, t.act, vals)
	case Duplicate:
		return fmt.Errorf("graph: duplicate token at %s port %d", t.act, t.port)
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
		if uint64(u) > ContextBudget {
			return fmt.Errorf("get-context at %s: context space exhausted (%d contexts, limit %d)", act, u, ContextBudget)
		}
		it.nextCtx++
		for uint64(len(it.ctxs)) <= uint64(u) {
			it.ctxs = append(it.ctxs, ctxRecord{})
		}
		it.ctxs[u] = ctxRecord{
			Invocation: Invocation{Block: in.Target, Parent: act, ReturnDests: in.RetDests},
			live:       true,
		}
		emit(in.Dests, token.Int(int64(u)))
	case KindSendArg:
		h, err := ops[0].AsInt()
		if err != nil {
			return fmt.Errorf("%s handle at %s: %v", in.Op, act, err)
		}
		u, ok := ContextHandle(h)
		rec := it.ctx(u)
		if !ok || rec == nil {
			return fmt.Errorf("%s at %s: unknown context %d", in.Op, act, h)
		}
		callee := it.cg.Block(rec.Block)
		if int(in.ArgIndex) >= len(callee.Entries) {
			return fmt.Errorf("%s at %s: arg %d exceeds %q entries", in.Op, act, in.ArgIndex, callee.Name)
		}
		rec.ArgsSent++
		rec.live = !rec.Done(it.cg)
		it.inject(token.ActivityName{
			Context:    u,
			CodeBlock:  uint16(rec.Block),
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
		rec.Returned = true
		rec.live = !rec.Done(it.cg)
		for _, d := range rec.ReturnDests {
			it.inject(token.ActivityName{
				Context:    rec.Parent.Context,
				CodeBlock:  rec.Parent.CodeBlock,
				Statement:  d.Stmt,
				Initiation: rec.Parent.Initiation,
			}, d.Port, ops[0])
		}
	case KindAllocate:
		base := uint32(len(it.store.cells))
		n, err := AllocSize(ops[0], base)
		if err != nil {
			return fmt.Errorf("allocate at %s: %v", act, err)
		}
		it.store.cells = append(it.store.cells, make([]idealCell, n)...)
		emit(in.Dests, token.NewRef(token.Ref{Base: base, Len: n}))
	case KindFetch:
		addr, ok := CellAddr(ops[0], uint32(len(it.store.cells)))
		if !ok {
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
		addr, ok := CellAddr(ops[0], uint32(len(it.store.cells)))
		if !ok {
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
