// Package direct is the direct-execution oracle backend: it runs a
// compiled dataflow plan (graph.CompiledGraph) at native Go speed with no
// cycle model at all — no engine, no tokens, no waiting-matching store, no
// network. It exists because the plan's *results* are machine-independent
// (the paper's own premise: the dataflow graph fixes the answers, the
// machine only fixes the timing), so answer-checking and result-only
// serving should not pay cycle-accurate prices. DESIGN.md §10 showed the
// cycle-accurate simulator is capped near ~1 Mcycles/s by matching and
// token movement; this backend removes both.
//
// The lowering (DESIGN.md §14):
//
//   - a token <u,c,s,i,port,value> becomes a delivery record on an
//     explicit LIFO work stack; popping a delivery either fires its
//     instruction immediately (single-operand statements) or writes the
//     value into a dense per-activation frame slot assigned at compile
//     time (two-operand statements), firing when the slot fills;
//   - a context becomes a heap record holding its code block, caller
//     linkage, and activation frames; loop iterations index frames by
//     initiation number;
//   - I-structures become plain slices with presence bits; a fetch that
//     arrives before its store parks on the cell's waiter list and is
//     re-pushed by the store (pure topological scheduling would deadlock
//     here, which is why the schedule is the depth-first unwinding of the
//     dynamic dependence DAG rather than a static statement order);
//   - arithmetic is the shared graph.Eval, so the direct backend cannot
//     disagree with the interpreter, the TTDA's ALU, or the emulator on
//     a single bit of any result.
//
// What the backend deliberately cannot observe: cycles, per-PE statistics,
// wave profiles, parallelism, checkpoints. It answers exactly one
// question — what does this program compute — and answers it fast.
package direct

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/token"
)

// delivery is one in-flight operand: the activity name split into the
// context record index, initiation, and statement, plus the operand port
// and value. The explicit stack of these is the backend's activation
// stack: deep recursion and million-iteration loops consume heap, not the
// Go stack.
type delivery struct {
	ctx  uint32
	init uint32
	stmt uint16
	port uint8
	val  token.Value
}

// pair is one dense match slot: the two operand values of a two-operand
// statement, with presence bits.
type pair struct {
	vals [2]token.Value
	have [2]bool
}

// frame is the dense value frame of one activation (one (context,
// initiation) pair): a slot per two-operand statement, assigned by the
// plan's static MatchSlot numbering.
type frame struct {
	slots    []pair
	occupied int // slots currently holding exactly one operand
}

// ctxState is one invocation record with its activation frames. Records
// are never deallocated while the run lives (context numbers are
// allocated monotonically and stale handles must keep failing loudly,
// matching the interpreter), but loop iteration frames are recycled as
// soon as they empty. Each record is allocated on its own and never
// moves, so a pointer to one stays valid while later calls create more.
type ctxState struct {
	graph.Invocation
	cb *graph.CBlock // the plan's block Invocation.Block
	// live turns false once Invocation.Done holds. Only the handle dies:
	// frames stay until their operands drain, since stragglers inside the
	// callee may still be on the stack.
	live bool

	// frame1 serves initiation 1 — every non-loop activation and the
	// first loop iteration — without a map access. iterFrame caches the
	// single live iteration of the common sequential loop; iters carries
	// the overflow, and spare recycles the drained frame so steady loops
	// allocate nothing per iteration.
	frame1    frame
	iterInit  uint32
	iterFrame *frame
	spare     *frame
	iters     map[uint32]*frame
}

// cell is one I-structure element: a presence bit, the value, and the
// deferred reads parked on it.
type cell struct {
	present bool
	value   token.Value
	waiters []waiter
}

// waiter is a deferred fetch: where to deliver the value once it exists.
type waiter struct {
	ctx  uint32
	init uint32
	stmt uint16
	port uint8
}

// Exec executes one plan once. Like the reference interpreter it is
// single-use: build (cheaply) per run, share the plan across runs.
type Exec struct {
	cg         *graph.CompiledGraph
	compileErr error

	ctxs  []*ctxState
	stack []delivery

	// queue is the FIFO lane for iteration-advancing (D) deliveries. A
	// pure LIFO schedule lets the loop-control chain race arbitrarily far
	// ahead — the i chain of "for i from 1 to n" needs nothing from the
	// body, so depth-first execution would materialize all n iteration
	// frames before completing one (dataflow unleashed, exactly the
	// paper's point, but here it costs O(n) live frames). Deferring D
	// outputs to a FIFO lane drains each iteration before its successor
	// starts, bounding live frames by the program's real cross-iteration
	// dependence depth.
	queue []delivery
	qhead int

	cells    []cell
	deferred int

	parked   int
	results  []token.Value
	fired    uint64
	maxSteps uint64
}

// New compiles prog and returns a direct executor for it. A compile
// failure surfaces from Run.
func New(prog *graph.Program) *Exec {
	cg, err := graph.Compile(prog)
	x := NewFromPlan(cg)
	x.compileErr = err
	return x
}

// NewFromPlan returns a direct executor over an already-compiled plan,
// sharing it with other consumers (compile once, run many).
func NewFromPlan(cg *graph.CompiledGraph) *Exec {
	return &Exec{cg: cg, maxSteps: 100_000_000}
}

// SetMaxSteps bounds the number of instruction firings before Run reports
// non-termination.
func (x *Exec) SetMaxSteps(n uint64) { x.maxSteps = n }

// Fired returns the number of instruction firings — the only statistic
// the backend keeps, because it falls out of the main loop for free.
func (x *Exec) Fired() uint64 { return x.fired }

// Run executes the plan on the given entry-block arguments and returns
// the values delivered by OpReturn in context 0, in delivery order.
func (x *Exec) Run(args ...token.Value) ([]token.Value, error) {
	if x.compileErr != nil {
		return nil, fmt.Errorf("direct: %w", x.compileErr)
	}
	if x.cg == nil {
		return nil, fmt.Errorf("direct: nil plan")
	}
	entry := x.cg.Block(0)
	if len(args) != len(entry.Entries) {
		return nil, fmt.Errorf("direct: program %q wants %d arguments, got %d",
			x.cg.Prog.Name, len(entry.Entries), len(args))
	}
	// Context 0 is the root invocation of block 0.
	x.ctxs = append(x.ctxs, &ctxState{cb: entry, live: true})
	// Push in reverse so argument 0 pops first (cosmetic: the answer is
	// order-independent, the firing count is not path-dependent either).
	for j := len(args) - 1; j >= 0; j-- {
		x.push(0, 1, entry.Entries[j], 0, args[j])
	}
	for len(x.stack) > 0 || x.qhead < len(x.queue) {
		var d delivery
		if n := len(x.stack); n > 0 {
			d = x.stack[n-1]
			x.stack = x.stack[:n-1]
		} else {
			d = x.queue[x.qhead]
			x.qhead++
			// A loop's next D outputs usually arrive before the lane
			// empties, so reclaim the consumed front whenever it is half
			// the lane; otherwise the lane grows by every iteration.
			if 2*x.qhead >= len(x.queue) {
				n := copy(x.queue, x.queue[x.qhead:])
				x.queue, x.qhead = x.queue[:n], 0
			}
		}
		if err := x.deliver(d); err != nil {
			return nil, err
		}
		if x.fired > x.maxSteps {
			return nil, fmt.Errorf("direct: program %q exceeded %d firings", x.cg.Prog.Name, x.maxSteps)
		}
	}
	if x.parked != 0 {
		return nil, fmt.Errorf("direct: program %q finished with %d unmatched operands in activation frames", x.cg.Prog.Name, x.parked)
	}
	if x.deferred != 0 {
		return nil, fmt.Errorf("direct: program %q deadlocked: %d deferred reads were never satisfied", x.cg.Prog.Name, x.deferred)
	}
	return x.results, nil
}

// Structure returns the element values of an I-structure after execution.
// Cells never written report token.Nil().
func (x *Exec) Structure(r token.Ref) []token.Value {
	out := make([]token.Value, 0, r.Len)
	for a := uint64(r.Base); a < uint64(r.Base)+uint64(r.Len) && a < uint64(len(x.cells)); a++ {
		if c := x.cells[a]; c.present {
			out = append(out, c.value)
		} else {
			out = append(out, token.Nil())
		}
	}
	return out
}

func (x *Exec) push(ctx, init uint32, stmt uint16, port uint8, v token.Value) {
	x.stack = append(x.stack, delivery{ctx: ctx, init: init, stmt: stmt, port: port, val: v})
}

// slot returns the match slot for a two-operand statement of activation
// (cs, init), allocating the activation's frame on first touch. The
// single-iteration cache plus the spare frame make the sequential
// steady state (one live iteration at a time, the common case under the
// FIFO D lane) allocation- and map-free.
func (cs *ctxState) slot(init uint32, ms int32) (*frame, *pair) {
	fr := &cs.frame1
	if init != 1 {
		if cs.iterFrame != nil && cs.iterInit == init {
			fr = cs.iterFrame
		} else if f, ok := cs.iters[init]; ok {
			fr = f
		} else {
			f = cs.spare
			if f == nil {
				f = &frame{slots: make([]pair, cs.cb.Slots)}
			}
			cs.spare = nil
			if cs.iterFrame == nil {
				cs.iterFrame, cs.iterInit = f, init
			} else {
				if cs.iters == nil {
					cs.iters = make(map[uint32]*frame)
				}
				cs.iters[init] = f
			}
			fr = f
		}
	} else if fr.slots == nil {
		fr.slots = make([]pair, cs.cb.Slots)
	}
	return fr, &fr.slots[ms]
}

// deliver routes one delivery: fire immediately for single-operand
// statements, otherwise park in the activation frame and fire on the
// completing operand.
func (x *Exec) deliver(d delivery) error {
	cs := x.ctxs[d.ctx]
	in := &cs.cb.Instrs[d.stmt]
	if in.NT <= 1 {
		var vals [2]token.Value
		vals[d.port] = d.val
		return x.fire(in, cs, d, vals)
	}
	fr, p := cs.slot(d.init, in.MatchSlot)
	if p.have[d.port] {
		return fmt.Errorf("direct: duplicate operand at (u=%d,c=%d,s=%d,i=%d) port %d",
			d.ctx, cs.cb.ID, d.stmt, d.init, d.port)
	}
	if !p.have[0] && !p.have[1] {
		fr.occupied++
		x.parked++
	}
	p.vals[d.port] = d.val
	p.have[d.port] = true
	if p.have[0] && p.have[1] {
		vals := p.vals
		*p = pair{}
		fr.occupied--
		x.parked--
		// A drained loop-iteration frame is garbage the moment it empties
		// (re-touching the same initiation re-creates it, exactly as a
		// graph.MatchTable re-admits a matched activity). The frame, its
		// slots fully zeroed by the completing matches, is recycled for
		// the next iteration.
		if fr.occupied == 0 && d.init != 1 {
			if fr == cs.iterFrame {
				cs.iterFrame = nil
				cs.spare = fr
			} else {
				delete(cs.iters, d.init)
			}
		}
		return x.fire(in, cs, d, vals)
	}
	return nil
}

func (x *Exec) fire(in *graph.CInstr, cs *ctxState, d delivery, vals [2]token.Value) error {
	x.fired++
	if in.HasLit {
		vals[in.LitPort] = in.Lit
	}

	switch in.Kind {
	case graph.KindPure:
		v, err := graph.Eval(in.Op, vals[0], vals[1])
		if err != nil {
			return fmt.Errorf("direct: %v at (u=%d,c=%d,s=%d,i=%d) %s", err, d.ctx, cs.cb.ID, d.stmt, d.init, in.Op)
		}
		for _, dst := range in.Dests {
			x.push(d.ctx, d.init, dst.Stmt, dst.Port, v)
		}
	case graph.KindSwitch:
		c, err := vals[1].AsBool()
		if err != nil {
			return fmt.Errorf("direct: switch control at (u=%d,c=%d,s=%d,i=%d): %v", d.ctx, cs.cb.ID, d.stmt, d.init, err)
		}
		dests := in.DestsFalse
		if c {
			dests = in.Dests
		}
		for _, dst := range dests {
			x.push(d.ctx, d.init, dst.Stmt, dst.Port, vals[0])
		}
	case graph.KindGetContext:
		if len(x.ctxs) > graph.ContextBudget {
			return fmt.Errorf("direct: get-context: context space exhausted (%d contexts, limit %d)", len(x.ctxs), graph.ContextBudget)
		}
		u := uint32(len(x.ctxs))
		x.ctxs = append(x.ctxs, &ctxState{
			Invocation: graph.Invocation{
				Block: in.Target,
				Parent: token.ActivityName{
					Context:    token.Context(d.ctx),
					CodeBlock:  uint16(cs.cb.ID),
					Statement:  d.stmt,
					Initiation: d.init,
				},
				ReturnDests: in.RetDests,
			},
			cb:   x.cg.Block(in.Target),
			live: true,
		})
		for _, dst := range in.Dests {
			x.push(d.ctx, d.init, dst.Stmt, dst.Port, token.Int(int64(u)))
		}
	case graph.KindSendArg:
		h, err := vals[0].AsInt()
		if err != nil {
			return fmt.Errorf("direct: %s handle: %v", in.Op, err)
		}
		u, ok := graph.ContextHandle(h)
		callee := x.ctx(u)
		if !ok || callee == nil {
			return fmt.Errorf("direct: %s at (u=%d,c=%d,s=%d,i=%d): unknown context %d", in.Op, d.ctx, cs.cb.ID, d.stmt, d.init, h)
		}
		if int(in.ArgIndex) >= len(callee.cb.Entries) {
			return fmt.Errorf("direct: %s: arg %d exceeds %q entries", in.Op, in.ArgIndex, callee.cb.Name)
		}
		callee.ArgsSent++
		callee.live = !callee.Done(x.cg)
		x.push(uint32(u), 1, callee.cb.Entries[in.ArgIndex], 0, vals[1])
	case graph.KindD:
		for _, dst := range in.Dests {
			x.queue = append(x.queue, delivery{ctx: d.ctx, init: d.init + 1, stmt: dst.Stmt, port: dst.Port, val: vals[0]})
		}
	case graph.KindDInv:
		for _, dst := range in.Dests {
			x.push(d.ctx, 1, dst.Stmt, dst.Port, vals[0])
		}
	case graph.KindReturn:
		if d.ctx == 0 {
			x.results = append(x.results, vals[0])
			return nil
		}
		if !cs.live {
			return fmt.Errorf("direct: %s at (u=%d,c=%d,s=%d,i=%d): unknown context", in.Op, d.ctx, cs.cb.ID, d.stmt, d.init)
		}
		cs.Returned = true
		cs.live = !cs.Done(x.cg)
		for _, dst := range cs.ReturnDests {
			x.push(uint32(cs.Parent.Context), cs.Parent.Initiation, dst.Stmt, dst.Port, vals[0])
		}
	case graph.KindAllocate:
		base := uint32(len(x.cells))
		n, err := graph.AllocSize(vals[0], base)
		if err != nil {
			return fmt.Errorf("direct: allocate: %v", err)
		}
		x.cells = append(x.cells, make([]cell, n)...)
		ref := token.NewRef(token.Ref{Base: base, Len: n})
		for _, dst := range in.Dests {
			x.push(d.ctx, d.init, dst.Stmt, dst.Port, ref)
		}
	case graph.KindFetch:
		addr, ok := graph.CellAddr(vals[0], uint32(len(x.cells)))
		if !ok {
			return fmt.Errorf("direct: fetch: bad address %s", vals[0])
		}
		c := &x.cells[addr]
		dst := in.Dests[0]
		if c.present {
			for _, dd := range in.Dests {
				x.push(d.ctx, d.init, dd.Stmt, dd.Port, c.value)
			}
			return nil
		}
		c.waiters = append(c.waiters, waiter{ctx: d.ctx, init: d.init, stmt: dst.Stmt, port: dst.Port})
		x.deferred++
	case graph.KindStore:
		addr, ok := graph.CellAddr(vals[0], uint32(len(x.cells)))
		if !ok {
			return fmt.Errorf("direct: store: bad address %s", vals[0])
		}
		c := &x.cells[addr]
		if c.present {
			return fmt.Errorf("direct: store: address %d already written (single-assignment violation)", addr)
		}
		c.present = true
		c.value = vals[1]
		for _, w := range c.waiters {
			x.push(w.ctx, w.init, w.stmt, w.port, vals[1])
		}
		x.deferred -= len(c.waiters)
		c.waiters = nil
	case graph.KindSink, graph.KindNop:
		// absorbed
	default:
		return fmt.Errorf("direct: cannot execute %s", in.Op)
	}
	return nil
}

// ctx returns the live record for context u, or nil.
func (x *Exec) ctx(u token.Context) *ctxState {
	if u < 1 || uint64(u) >= uint64(len(x.ctxs)) {
		return nil
	}
	cs := x.ctxs[u]
	if !cs.live {
		return nil
	}
	return cs
}

// Run compiles prog once and executes it directly — the convenience used
// by answer-checking call sites.
func Run(prog *graph.Program, args ...token.Value) ([]token.Value, error) {
	return New(prog).Run(args...)
}
