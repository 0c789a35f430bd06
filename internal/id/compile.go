package id

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/token"
)

// Compile parses and compiles MiniID source into a validated, optimized
// dataflow program. The program's entry block is the function named main.
func Compile(src string) (*graph.Program, error) {
	prog, err := CompileRaw(src)
	if err != nil {
		return nil, err
	}
	graph.Optimize(prog)
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("minid: optimizer broke the program: %w", err)
	}
	return prog, nil
}

// CompileRaw compiles without the optimizer — the graphs read exactly as
// generated, and the optimizer's effect can be measured against them.
func CompileRaw(src string) (*graph.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(f)
}

// CompileFile compiles a parsed file.
func CompileFile(f *File) (*graph.Program, error) {
	if err := injectPrelude(f); err != nil {
		return nil, err
	}
	c := &compiler{
		b:     graph.NewBuilder("minid"),
		funcs: map[string]*funcInfo{},
	}
	return c.compile(f)
}

// funcInfo records one top-level definition's code block.
type funcInfo struct {
	def     *Def
	bb      *graph.BlockBuilder
	nargs   int  // entry count, including an implicit trigger for 0-param defs
	trigger bool // true when the first entry is an implicit trigger
}

type compiler struct {
	b      *graph.Builder
	funcs  map[string]*funcInfo
	blocks []*graph.BlockBuilder // every block, including loop blocks
}

// newBlock creates a code block and tracks it for the final sink pass.
func (c *compiler) newBlock(name string, numArgs int) *graph.BlockBuilder {
	bb := c.b.NewBlock(name, numArgs)
	c.blocks = append(c.blocks, bb)
	return bb
}

func (c *compiler) compile(f *File) (*graph.Program, error) {
	// Pass 1: declare all blocks so calls (including recursive and mutual)
	// can resolve. main becomes block 0, the program entry.
	order := make([]*Def, 0, len(f.Defs))
	var main *Def
	for _, d := range f.Defs {
		if _, dup := c.funcs[d.Name]; dup {
			return nil, errf(d.At, "duplicate definition of %q", d.Name)
		}
		c.funcs[d.Name] = nil // reserve name
		if d.Name == "main" {
			main = d
		} else {
			order = append(order, d)
		}
	}
	if main == nil {
		return nil, errf(Pos{1, 1}, "no main function defined")
	}
	order = append([]*Def{main}, order...)
	for _, d := range order {
		nargs := len(d.Params)
		trigger := false
		if nargs == 0 {
			nargs, trigger = 1, true
		}
		c.funcs[d.Name] = &funcInfo{
			def:     d,
			bb:      c.newBlock(d.Name, nargs),
			nargs:   nargs,
			trigger: trigger,
		}
	}
	// Pass 2: compile bodies.
	for _, d := range order {
		if err := c.compileDef(c.funcs[d.Name]); err != nil {
			return nil, err
		}
	}
	c.addSinks()
	return c.b.Finish()
}

func (c *compiler) compileDef(fi *funcInfo) error {
	bb := fi.bb
	env := &funcEnv{c: c, bb: bb, fi: fi, names: map[string]value{}}
	if !fi.trigger {
		for j, p := range fi.def.Params {
			if _, dup := env.names[p]; dup {
				return errf(fi.def.At, "duplicate parameter %q", p)
			}
			env.names[p] = srcValue(src{stmt: bb.Entry(j)})
		}
	}
	v, err := c.compileExpr(env, fi.def.Body)
	if err != nil {
		return err
	}
	ret := bb.Op(graph.OpReturn, "return "+fi.def.Name)
	c.wire(env, v, ret, 0)
	return nil
}

// addSinks gives every dangling result a consumer so validation passes:
// unused parameters, unused let bindings, and loop/call results whose value
// is discarded all flow into an explicit SINK.
func (c *compiler) addSinks() {
	for _, bb := range c.blocks {
		var sink uint16
		haveSink := false
		getSink := func() uint16 {
			if !haveSink {
				sink = bb.Op(graph.OpSink, "discard")
				haveSink = true
			}
			return sink
		}
		n := bb.NumInstrs()
		for s := 0; s < n; s++ {
			in := bb.Instr(uint16(s))
			switch in.Op {
			case graph.OpNop, graph.OpStore, graph.OpSink, graph.OpReturn,
				graph.OpLInv, graph.OpSendArg, graph.OpL, graph.OpSwitch:
				continue
			case graph.OpGetContext:
				if len(in.ReturnDests) == 0 {
					bb.ConnectReturn(uint16(s), getSink(), 0)
				}
				if len(in.Dests) == 0 {
					bb.Connect(uint16(s), getSink(), 0)
				}
			default:
				if len(in.Dests) == 0 {
					bb.Connect(uint16(s), getSink(), 0)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Values and sources

type srcKind uint8

const (
	srcNormal  srcKind = iota
	srcFalse           // the false branch of a switch
	srcCallRet         // the return destinations of an OpGetContext
)

// src names a producer output within one code block.
type src struct {
	stmt uint16
	kind srcKind
}

// value is the result of compiling an expression: either a compile-time
// constant or a graph source.
type value struct {
	isConst bool
	c       token.Value
	s       src
}

func constValue(v token.Value) value { return value{isConst: true, c: v} }
func srcValue(s src) value           { return value{s: s} }

// ---------------------------------------------------------------------------
// Environments

// env resolves variable references during compilation. Every environment is
// attached to one code block; lookups never cross a block boundary except
// through loopEnv's import machinery.
type env interface {
	// lookup resolves a name to a value.
	lookup(name string, at Pos) (value, error)
	// trigger returns a source that produces exactly one token per
	// activation of the current region, used to gate constants.
	trigger() src
	// blockBuilder returns the block instructions are emitted into.
	blockBuilder() *graph.BlockBuilder
	// comp returns the compiler.
	comp() *compiler
}

// funcEnv is the top-level environment of a function body.
type funcEnv struct {
	c     *compiler
	bb    *graph.BlockBuilder
	fi    *funcInfo
	names map[string]value
}

func (e *funcEnv) lookup(name string, at Pos) (value, error) {
	if v, ok := e.names[name]; ok {
		return v, nil
	}
	if _, isFunc := e.c.funcs[name]; isFunc {
		return value{}, errf(at, "function %q used as a value", name)
	}
	return value{}, errf(at, "undefined variable %q", name)
}

func (e *funcEnv) trigger() src                      { return src{stmt: e.bb.Entry(0)} }
func (e *funcEnv) blockBuilder() *graph.BlockBuilder { return e.bb }
func (e *funcEnv) comp() *compiler                   { return e.c }

// letEnv adds sequential bindings within the same block.
type letEnv struct {
	parent env
	names  map[string]value
}

func (e *letEnv) lookup(name string, at Pos) (value, error) {
	if v, ok := e.names[name]; ok {
		return v, nil
	}
	return e.parent.lookup(name, at)
}

func (e *letEnv) trigger() src                      { return e.parent.trigger() }
func (e *letEnv) blockBuilder() *graph.BlockBuilder { return e.parent.blockBuilder() }
func (e *letEnv) comp() *compiler                   { return e.parent.comp() }

// ifGate shares the per-variable gating switches between the two branch
// environments of one conditional.
type ifGate struct {
	parent env
	cond   src // materialized condition
	gates  map[string]uint16
	trig   uint16
	hasT   bool
}

// gateVar returns the switch routing the named parent value by the
// condition, creating it on first use.
func (g *ifGate) gateVar(name string, parentSrc src) uint16 {
	if s, ok := g.gates[name]; ok {
		return s
	}
	bb := g.parent.blockBuilder()
	sw := bb.Op(graph.OpSwitch, "gate "+name)
	g.parent.comp().wireSrc(bb, parentSrc, sw, 0)
	g.parent.comp().wireSrc(bb, g.cond, sw, 1)
	g.gates[name] = sw
	return sw
}

// gateTrigger returns a switch gating the parent trigger.
func (g *ifGate) gateTrigger() uint16 {
	if !g.hasT {
		bb := g.parent.blockBuilder()
		sw := bb.Op(graph.OpSwitch, "gate trigger")
		g.parent.comp().wireSrc(bb, g.parent.trigger(), sw, 0)
		g.parent.comp().wireSrc(bb, g.cond, sw, 1)
		g.trig = sw
		g.hasT = true
	}
	return g.trig
}

// ifEnv is one branch of a conditional: variable references are routed
// through gating switches so only the taken branch receives tokens.
type ifEnv struct {
	gate   *ifGate
	branch bool // true for the then-arm
}

func (e *ifEnv) lookup(name string, at Pos) (value, error) {
	v, err := e.gate.parent.lookup(name, at)
	if err != nil {
		return value{}, err
	}
	if v.isConst {
		return v, nil // constants are gated at materialization time
	}
	sw := e.gate.gateVar(name, v.s)
	if e.branch {
		return srcValue(src{stmt: sw}), nil
	}
	return srcValue(src{stmt: sw, kind: srcFalse}), nil
}

func (e *ifEnv) trigger() src {
	sw := e.gate.gateTrigger()
	if e.branch {
		return src{stmt: sw}
	}
	return src{stmt: sw, kind: srcFalse}
}

func (e *ifEnv) blockBuilder() *graph.BlockBuilder { return e.gate.parent.blockBuilder() }
func (e *ifEnv) comp() *compiler                   { return e.gate.parent.comp() }

// ---------------------------------------------------------------------------
// Loop compilation

// loopVar is one circulating variable of a loop: entry identity, switch,
// and D instruction in the loop block.
type loopVar struct {
	entry  uint16
	sw     uint16
	d      uint16
	newSrc *value // value for the next iteration; nil means unchanged
}

type loopPhase uint8

const (
	phaseRaw   loopPhase = iota // predicate: raw entry values
	phaseTrue                   // body: switch true outputs
	phaseFalse                  // return expression: switch false outputs
)

// loopCompiler builds one loop code block plus its caller-side linkage.
type loopCompiler struct {
	c         *compiler
	callerEnv env
	callerBB  *graph.BlockBuilder
	loopBB    *graph.BlockBuilder
	getc      uint16
	vars      map[string]*loopVar
	order     []string
	predSrc   *src
}

// addVar creates the circulating machinery for one variable whose initial
// value is init (a caller-block value), returning its loopVar.
func (lc *loopCompiler) addVar(name string, init value) *loopVar {
	argIndex := uint8(len(lc.order))
	// Loop block side: entry, switch, D back to the entry.
	entry := lc.loopBB.Emit(graph.Instruction{Op: graph.OpIdentity, Comment: "circ " + name})
	lc.loopBB.AddEntry(entry)
	sw := lc.loopBB.Op(graph.OpSwitch, "switch "+name)
	d := lc.loopBB.Op(graph.OpD, "D "+name)
	lc.loopBB.Connect(entry, sw, 0)
	lc.loopBB.Connect(d, entry, 0)
	if lc.predSrc != nil {
		lc.c.wireSrc(lc.loopBB, *lc.predSrc, sw, 1)
	}
	// Caller side: L feeds the initial value into the loop context.
	l := lc.callerBB.Emit(graph.Instruction{
		Op: graph.OpL, Target: lc.loopBB.ID(), ArgIndex: argIndex,
		Comment: "L " + name,
	})
	lc.callerBB.Connect(lc.getc, l, 0)
	lc.c.wire(lc.callerEnv, init, l, 1)
	v := &loopVar{entry: entry, sw: sw, d: d}
	lc.vars[name] = v
	lc.order = append(lc.order, name)
	return v
}

// setPredicate wires the compiled predicate to every existing switch and
// remembers it for variables imported later.
func (lc *loopCompiler) setPredicate(p src) {
	lc.predSrc = &p
	for _, name := range lc.order {
		lc.c.wireSrc(lc.loopBB, p, lc.vars[name].sw, 1)
	}
}

// importName makes an enclosing-scope variable available inside the loop by
// circulating it as a loop constant. Compile-time constants pass through
// unchanged.
func (lc *loopCompiler) importName(name string, at Pos) (*loopVar, value, error) {
	if v, ok := lc.vars[name]; ok {
		return v, value{}, nil
	}
	outer, err := lc.callerEnv.lookup(name, at)
	if err != nil {
		return nil, value{}, err
	}
	if outer.isConst {
		return nil, outer, nil
	}
	return lc.addVar(name, outer), value{}, nil
}

// loopEnv resolves names inside the loop block for one phase.
type loopEnv struct {
	lc    *loopCompiler
	phase loopPhase
}

func (e *loopEnv) varSrc(v *loopVar) src {
	switch e.phase {
	case phaseRaw:
		return src{stmt: v.entry}
	case phaseTrue:
		return src{stmt: v.sw}
	default:
		return src{stmt: v.sw, kind: srcFalse}
	}
}

func (e *loopEnv) lookup(name string, at Pos) (value, error) {
	if v, ok := e.lc.vars[name]; ok {
		return srcValue(e.varSrc(v)), nil
	}
	v, cv, err := e.lc.importName(name, at)
	if err != nil {
		return value{}, err
	}
	if v == nil {
		return cv, nil // compile-time constant
	}
	return srcValue(e.varSrc(v)), nil
}

// trigger anchors constants to the loop's first circulating variable (the
// index for counted loops), which produces exactly one token per phase per
// iteration.
func (e *loopEnv) trigger() src {
	return e.varSrc(e.lc.vars[e.lc.order[0]])
}

func (e *loopEnv) blockBuilder() *graph.BlockBuilder { return e.lc.loopBB }
func (e *loopEnv) comp() *compiler                   { return e.lc.c }

// ---------------------------------------------------------------------------
// Wiring helpers

// wireSrc connects a source to a consumer port within block bb.
func (c *compiler) wireSrc(bb *graph.BlockBuilder, s src, to uint16, port uint8) {
	switch s.kind {
	case srcNormal:
		bb.Connect(s.stmt, to, port)
	case srcFalse:
		bb.ConnectFalse(s.stmt, to, port)
	case srcCallRet:
		bb.ConnectReturn(s.stmt, to, port)
	}
}

// wire connects a value (materializing constants) to a consumer port.
func (c *compiler) wire(e env, v value, to uint16, port uint8) {
	s := c.materialize(e, v)
	c.wireSrc(e.blockBuilder(), s, to, port)
}

// materialize turns a value into a source, emitting a CONST generator for
// compile-time constants, gated by the environment's trigger.
func (c *compiler) materialize(e env, v value) src {
	if !v.isConst {
		return v.s
	}
	bb := e.blockBuilder()
	k := bb.OpLit(graph.OpConst, v.c, 1, "const "+v.c.String())
	c.wireSrc(bb, e.trigger(), k, 0)
	return src{stmt: k}
}

// ---------------------------------------------------------------------------
// Expression compilation

var builtinUnary = map[string]graph.Opcode{
	"sqrt":  graph.OpSqrt,
	"abs":   graph.OpAbs,
	"floor": graph.OpFloor,
	"len":   graph.OpLen,
}

var builtinBinary = map[string]graph.Opcode{
	"min": graph.OpMin,
	"max": graph.OpMax,
}

var binaryOps = map[string]graph.Opcode{
	"+": graph.OpAdd, "-": graph.OpSub, "*": graph.OpMul, "/": graph.OpDiv,
	"%": graph.OpMod, "<": graph.OpLT, "<=": graph.OpLE, ">": graph.OpGT,
	">=": graph.OpGE, "==": graph.OpEQ, "!=": graph.OpNE,
	"and": graph.OpAnd, "or": graph.OpOr,
}

func (c *compiler) compileExpr(e env, x Expr) (value, error) {
	switch n := x.(type) {
	case *NumberLit:
		if n.IsFloat {
			return constValue(token.Float(n.Float)), nil
		}
		return constValue(token.Int(n.Int)), nil
	case *BoolLit:
		return constValue(token.Bool(n.Value)), nil
	case *VarRef:
		return e.lookup(n.Name, n.At)
	case *Unary:
		return c.compileUnary(e, n)
	case *Binary:
		return c.compileBinary(e, n)
	case *Call:
		return c.compileCall(e, n)
	case *If:
		return c.compileIf(e, n)
	case *Index:
		return c.compileIndex(e, n)
	case *ArrayAlloc:
		return c.compileAlloc(e, n)
	case *Let:
		return c.compileLet(e, n)
	case *Loop:
		return c.compileLoop(e, n)
	default:
		return value{}, errf(x.Pos(), "internal: unknown expression %T", x)
	}
}

func (c *compiler) compileUnary(e env, n *Unary) (value, error) {
	v, err := c.compileExpr(e, n.X)
	if err != nil {
		return value{}, err
	}
	op := graph.OpNeg
	if n.Op == "not" {
		op = graph.OpNot
	}
	if v.isConst {
		folded, err := graph.Eval(op, v.c, token.Nil())
		if err != nil {
			return value{}, errf(n.At, "%v", err)
		}
		return constValue(folded), nil
	}
	bb := e.blockBuilder()
	s := bb.Op(op, n.Op)
	c.wireSrc(bb, v.s, s, 0)
	return srcValue(src{stmt: s}), nil
}

func (c *compiler) compileBinary(e env, n *Binary) (value, error) {
	op, ok := binaryOps[n.Op]
	if !ok {
		return value{}, errf(n.At, "internal: unknown operator %q", n.Op)
	}
	l, err := c.compileExpr(e, n.L)
	if err != nil {
		return value{}, err
	}
	r, err := c.compileExpr(e, n.R)
	if err != nil {
		return value{}, err
	}
	return c.emitBinary(e, n.At, op, l, r, n.Op)
}

// emitBinary folds constants and uses the literal operand slot when one
// side is constant.
func (c *compiler) emitBinary(e env, at Pos, op graph.Opcode, l, r value, comment string) (value, error) {
	if l.isConst && r.isConst {
		folded, err := graph.Eval(op, l.c, r.c)
		if err != nil {
			return value{}, errf(at, "%v", err)
		}
		return constValue(folded), nil
	}
	bb := e.blockBuilder()
	switch {
	case r.isConst:
		s := bb.OpLit(op, r.c, 1, comment)
		c.wireSrc(bb, l.s, s, 0)
		return srcValue(src{stmt: s}), nil
	case l.isConst:
		s := bb.OpLit(op, l.c, 0, comment)
		c.wireSrc(bb, r.s, s, 1)
		return srcValue(src{stmt: s}), nil
	default:
		s := bb.Op(op, comment)
		c.wireSrc(bb, l.s, s, 0)
		c.wireSrc(bb, r.s, s, 1)
		return srcValue(src{stmt: s}), nil
	}
}

func (c *compiler) compileCall(e env, n *Call) (value, error) {
	if op, ok := builtinUnary[n.Name]; ok {
		if len(n.Args) != 1 {
			return value{}, errf(n.At, "%s takes 1 argument, got %d", n.Name, len(n.Args))
		}
		v, err := c.compileExpr(e, n.Args[0])
		if err != nil {
			return value{}, err
		}
		if v.isConst {
			folded, err := graph.Eval(op, v.c, token.Nil())
			if err != nil {
				return value{}, errf(n.At, "%v", err)
			}
			return constValue(folded), nil
		}
		bb := e.blockBuilder()
		s := bb.Op(op, n.Name)
		c.wireSrc(bb, v.s, s, 0)
		return srcValue(src{stmt: s}), nil
	}
	if op, ok := builtinBinary[n.Name]; ok {
		if len(n.Args) != 2 {
			return value{}, errf(n.At, "%s takes 2 arguments, got %d", n.Name, len(n.Args))
		}
		l, err := c.compileExpr(e, n.Args[0])
		if err != nil {
			return value{}, err
		}
		r, err := c.compileExpr(e, n.Args[1])
		if err != nil {
			return value{}, err
		}
		return c.emitBinary(e, n.At, op, l, r, n.Name)
	}
	fi, ok := c.funcs[n.Name]
	if !ok || fi == nil {
		return value{}, errf(n.At, "undefined function %q", n.Name)
	}
	wantArgs := len(fi.def.Params)
	if len(n.Args) != wantArgs {
		return value{}, errf(n.At, "%s takes %d arguments, got %d", n.Name, wantArgs, len(n.Args))
	}
	bb := e.blockBuilder()
	getc := bb.Emit(graph.Instruction{
		Op: graph.OpGetContext, Target: fi.bb.ID(), Comment: "call " + n.Name,
	})
	c.wireSrc(bb, e.trigger(), getc, 0)
	args := n.Args
	if fi.trigger {
		// zero-parameter function: send the trigger as the hidden argument
		send := bb.Emit(graph.Instruction{Op: graph.OpSendArg, Target: fi.bb.ID(), ArgIndex: 0})
		bb.Connect(getc, send, 0)
		c.wireSrc(bb, e.trigger(), send, 1)
	}
	for j, a := range args {
		av, err := c.compileExpr(e, a)
		if err != nil {
			return value{}, err
		}
		send := bb.Emit(graph.Instruction{
			Op: graph.OpSendArg, Target: fi.bb.ID(), ArgIndex: uint8(j),
			Comment: fmt.Sprintf("arg %d of %s", j, n.Name),
		})
		bb.Connect(getc, send, 0)
		c.wire(e, av, send, 1)
	}
	return srcValue(src{stmt: getc, kind: srcCallRet}), nil
}

func (c *compiler) compileIf(e env, n *If) (value, error) {
	cond, err := c.compileExpr(e, n.Cond)
	if err != nil {
		return value{}, err
	}
	if cond.isConst {
		// static condition: compile only the taken arm
		b, err := cond.c.AsBool()
		if err != nil {
			return value{}, errf(n.At, "condition is not boolean: %v", err)
		}
		if b {
			return c.compileExpr(e, n.Then)
		}
		return c.compileExpr(e, n.Else)
	}
	gate := &ifGate{parent: e, cond: cond.s, gates: map[string]uint16{}}
	thenEnv := &ifEnv{gate: gate, branch: true}
	elseEnv := &ifEnv{gate: gate, branch: false}
	tv, err := c.compileExpr(thenEnv, n.Then)
	if err != nil {
		return value{}, err
	}
	ev, err := c.compileExpr(elseEnv, n.Else)
	if err != nil {
		return value{}, err
	}
	bb := e.blockBuilder()
	merge := bb.Op(graph.OpIdentity, "if-merge")
	c.wire(thenEnv, tv, merge, 0)
	c.wire(elseEnv, ev, merge, 0)
	return srcValue(src{stmt: merge}), nil
}

func (c *compiler) compileIndex(e env, n *Index) (value, error) {
	seq, err := c.compileExpr(e, n.Seq)
	if err != nil {
		return value{}, err
	}
	idx, err := c.compileExpr(e, n.Idx)
	if err != nil {
		return value{}, err
	}
	addr, err := c.emitBinary(e, n.At, graph.OpIAddr, seq, idx, "addr")
	if err != nil {
		return value{}, err
	}
	bb := e.blockBuilder()
	fetch := bb.Op(graph.OpFetch, "fetch")
	c.wire(e, addr, fetch, 0)
	// FETCH responses are addressed to a single destination; interpose an
	// identity so the selected value can fan out.
	id := bb.Op(graph.OpIdentity, "fetched")
	bb.Connect(fetch, id, 0)
	return srcValue(src{stmt: id}), nil
}

func (c *compiler) compileAlloc(e env, n *ArrayAlloc) (value, error) {
	size, err := c.compileExpr(e, n.Size)
	if err != nil {
		return value{}, err
	}
	bb := e.blockBuilder()
	alloc := bb.Op(graph.OpAllocate, "array")
	c.wire(e, size, alloc, 0)
	id := bb.Op(graph.OpIdentity, "ref")
	bb.Connect(alloc, id, 0)
	return srcValue(src{stmt: id}), nil
}

// compileStore emits IADDR + STORE for an element assignment.
func (c *compiler) compileStore(e env, at Pos, seqE, idxE, valE Expr) error {
	seq, err := c.compileExpr(e, seqE)
	if err != nil {
		return err
	}
	idx, err := c.compileExpr(e, idxE)
	if err != nil {
		return err
	}
	addr, err := c.emitBinary(e, at, graph.OpIAddr, seq, idx, "addr")
	if err != nil {
		return err
	}
	val, err := c.compileExpr(e, valE)
	if err != nil {
		return err
	}
	bb := e.blockBuilder()
	store := bb.Op(graph.OpStore, "store")
	c.wire(e, addr, store, 0)
	c.wire(e, val, store, 1)
	return nil
}

func (c *compiler) compileLet(e env, n *Let) (value, error) {
	cur := env(e)
	for _, b := range n.Bindings {
		if b.IsStore {
			if err := c.compileStore(cur, b.At, b.Seq, b.Idx, b.Value); err != nil {
				return value{}, err
			}
			continue
		}
		v, err := c.compileExpr(cur, b.Value)
		if err != nil {
			return value{}, err
		}
		cur = &letEnv{parent: cur, names: map[string]value{b.Name: v}}
	}
	return c.compileExpr(cur, n.Body)
}

func (c *compiler) compileLoop(e env, n *Loop) (value, error) {
	bb := e.blockBuilder()
	loopBB := c.newBlock(fmt.Sprintf("loop@%s", n.At), 0)
	lc := &loopCompiler{
		c:         c,
		callerEnv: e,
		callerBB:  bb,
		loopBB:    loopBB,
		vars:      map[string]*loopVar{},
	}
	isWhile := n.Index == ""
	if isWhile && len(n.Initial) == 0 {
		return value{}, errf(n.At, "while loop needs at least one initial binding")
	}
	lc.getc = bb.Emit(graph.Instruction{
		Op: graph.OpGetContext, Target: loopBB.ID(), Comment: "enter loop",
	})
	c.wireSrc(bb, e.trigger(), lc.getc, 0)

	// Evaluate initial bindings and bounds in the caller, with bindings
	// visible to later bindings and to the bounds.
	initEnv := env(e)
	var err error
	if !isWhile {
		from, err := c.compileExpr(initEnv, n.From)
		if err != nil {
			return value{}, err
		}
		lc.addVar(n.Index, from)
	}
	for _, b := range n.Initial {
		if b.IsStore {
			return value{}, errf(b.At, "element store not allowed in initial section")
		}
		if b.Name == n.Index {
			return value{}, errf(b.At, "initial binding shadows loop index %q", b.Name)
		}
		v, err := c.compileExpr(initEnv, b.Value)
		if err != nil {
			return value{}, err
		}
		if _, dup := lc.vars[b.Name]; dup {
			return value{}, errf(b.At, "duplicate initial binding %q", b.Name)
		}
		lc.addVar(b.Name, v)
		initEnv = &letEnv{parent: initEnv, names: map[string]value{b.Name: v}}
	}

	// Counted-loop machinery: step, direction, and bound.
	step := value{isConst: true, c: token.Int(1)}
	var stepVar *loopVar
	cmpOp := graph.OpLE
	if !isWhile {
		if n.By != nil {
			step, err = c.compileExpr(initEnv, n.By)
			if err != nil {
				return value{}, err
			}
		}
		if step.isConst {
			if f, err := step.c.AsFloat(); err == nil && f < 0 {
				cmpOp = graph.OpGE
			}
		}
		if !step.isConst {
			stepVar = lc.addVar("#step", step)
		}
	}

	// Predicate, evaluated on raw entry values each iteration: i <= bound
	// for counted loops, the condition expression for while loops.
	rawEnv := &loopEnv{lc: lc, phase: phaseRaw}
	var pred value
	if isWhile {
		pred, err = c.compileExpr(rawEnv, n.Cond)
		if err != nil {
			return value{}, err
		}
	} else {
		to, err := c.compileExpr(initEnv, n.To)
		if err != nil {
			return value{}, err
		}
		var toVal value
		if to.isConst {
			toVal = to
		} else {
			toVar := lc.addVar("#to", to)
			toVal = srcValue(src{stmt: toVar.entry})
		}
		iRaw := srcValue(src{stmt: lc.vars[n.Index].entry})
		pred, err = c.emitBinary(rawEnv, n.At, cmpOp, iRaw, toVal, "loop predicate")
		if err != nil {
			return value{}, err
		}
	}
	predSrc := c.materialize(rawEnv, pred)
	lc.setPredicate(predSrc)

	// Body: compute next-iteration values under switch-true.
	bodyEnv := &loopEnv{lc: lc, phase: phaseTrue}
	for _, st := range n.Body {
		if st.IsStore {
			if err := c.compileStore(bodyEnv, st.At, st.Seq, st.Idx, st.Value); err != nil {
				return value{}, err
			}
			continue
		}
		v, ok := lc.vars[st.Name]
		if !ok {
			return value{}, errf(st.At, "new %s: %q is not a circulating loop variable (bind it in the initial section)", st.Name, st.Name)
		}
		if v.newSrc != nil {
			return value{}, errf(st.At, "duplicate new binding for %q", st.Name)
		}
		nv, err := c.compileExpr(bodyEnv, st.Value)
		if err != nil {
			return value{}, err
		}
		nv2 := nv
		v.newSrc = &nv2
	}
	// The index advances by the step (counted loops only).
	if !isWhile {
		iTrue := srcValue(src{stmt: lc.vars[n.Index].sw})
		var stepVal value
		if stepVar != nil {
			stepVal = srcValue(src{stmt: stepVar.sw})
		} else {
			stepVal = step
		}
		nextI, err := c.emitBinary(bodyEnv, n.At, graph.OpAdd, iTrue, stepVal, "advance index")
		if err != nil {
			return value{}, err
		}
		lc.vars[n.Index].newSrc = &nextI
	}

	// Wire every D input: the new value where one exists, the unchanged
	// switch-true output otherwise.
	for _, name := range lc.order {
		v := lc.vars[name]
		if v.newSrc != nil {
			c.wire(bodyEnv, *v.newSrc, v.d, 0)
		} else {
			lc.loopBB.Connect(v.sw, v.d, 0)
		}
	}

	// Return: compiled under switch-false, normalized by D⁻¹, exits via
	// L⁻¹ to the caller-side return destinations recorded by GETC.
	retEnv := &loopEnv{lc: lc, phase: phaseFalse}
	rv, err := c.compileExpr(retEnv, n.Return)
	if err != nil {
		return value{}, err
	}
	dinv := lc.loopBB.Op(graph.OpDInv, "D-1")
	linv := lc.loopBB.Op(graph.OpLInv, "L-1")
	c.wire(retEnv, rv, dinv, 0)
	lc.loopBB.Connect(dinv, linv, 0)

	return srcValue(src{stmt: lc.getc, kind: srcCallRet}), nil
}
