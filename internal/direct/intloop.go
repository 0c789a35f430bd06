package direct

import (
	"repro/internal/graph"
	"repro/internal/token"
)

// Integer specialization of the loop accelerator. Most MiniID loops
// circulate nothing but integers (induction variables, accumulators,
// I-structure indices), and for those the token.Value-typed DAG walk in
// runLoop still pays ~25 ns per op in value copies and kind dispatch.
// lowerInt type-checks the already-recognized loop plan under a simple
// static discipline — circulating variables are int64, each DAG slot is
// int64 or bool depending on the opcode that writes it — and, when every
// op checks out, re-emits both DAGs as a flat program over one dense
// int64 register file (bools stored as 0/1). The steady-state iteration
// then runs as a handful of register-indexed switch dispatches with no
// allocation and no interface-style dispatch at all.
//
// The specialization must be bit-identical to graph.Eval on the int
// tower, so each iop mirrors one verified Eval case: add/sub/mul wrap
// natively, div/mod truncate with a zero-divisor fault, the ordered
// comparisons (and int equality, per token.Value.Equal) compare through
// float64 exactly like Eval's AsFloat tower, and bool equality compares
// the bools themselves. Anything outside that table — float literals,
// sqrt, mixed-type equality, a bool circulating variable — rejects the
// specialization and leaves the general token.Value loop in charge.
// Division or modulo by zero cannot be typed away, so those iops bail
// out of the native loop mid-iteration; the standard injection protocol
// then has the delivery engine refire the iteration and surface the
// fault with its ordinary message. (Bailing may happen even when the
// engine's own schedule would have exited first — the predicate DAG and
// body DAG are evaluated together here — but injection is semantics-free
// either way: the engine re-decides the iteration from scratch.)

// iopKind is the specialized opcode set. Every kind states the static
// types it was checked against: i = int64, b = bool-as-0/1.
type iopKind uint8

const (
	iAdd iopKind = iota // i,i -> i, wrapping
	iSub                // i,i -> i, wrapping
	iMul                // i,i -> i, wrapping
	iDiv                // i,i -> i, truncating; b==0 bails to the engine
	iMod                // i,i -> i; b==0 bails to the engine
	iMin                // i,i -> i
	iMax                // i,i -> i
	iLT                 // i,i -> b, compared as float64 like Eval
	iLE                 // i,i -> b, compared as float64
	iGT                 // i,i -> b, compared as float64
	iGE                 // i,i -> b, compared as float64
	iEQf                // i,i -> b, compared as float64 like Value.Equal
	iNEf                // i,i -> b, compared as float64
	iEQb                // b,b -> b
	iNEb                // b,b -> b
	iAnd                // b,b -> b
	iOr                 // b,b -> b
	iNot                // b -> b
	iNeg                // i -> i
	iAbs                // i -> i
	iMov                // any -> same type (identity, const, floor-of-int)
)

// intOp reads registers a and b and writes register d.
type intOp struct {
	op      iopKind
	a, b, d uint16
}

// intPlan is the flat int64-register program for one loop block.
// Register layout: [0,nVars) circulating variables, then one register
// per DAG slot, then the literal pool.
type intPlan struct {
	regs0   []int64  // template: literals preloaded, vars/slots zero
	ops     []intOp  // predicate DAG then body DAG, topological order
	predReg uint16   // register steering the switches; bool-typed
	next    []uint16 // per variable: register holding its next value
}

// register static types during lowering.
const (
	tInt = iota
	tBool
)

// lowerInt type-checks lp and emits its int64 program, or returns nil
// when any operand or opcode falls outside the integer discipline.
func lowerInt(lp *loopPlan) *intPlan {
	m := lp.nVars
	nRegs := m + lp.nSlots
	typ := make([]uint8, nRegs, nRegs+8)
	regs0 := make([]int64, nRegs, nRegs+8)

	// lit interns a literal value as a constant register.
	lit := func(v token.Value) (uint16, uint8, bool) {
		var c int64
		var t uint8
		switch v.Kind {
		case token.KindInt:
			c, t = v.I, tInt
		case token.KindBool:
			t = tBool
			if b, _ := v.AsBool(); b {
				c = 1
			}
		default:
			return 0, 0, false // float/nil literals: general loop only
		}
		r := uint16(len(regs0))
		regs0 = append(regs0, c)
		typ = append(typ, t)
		return r, t, true
	}
	// operand resolves port p of op to a register and its static type.
	operand := func(op *loopOp, p int) (uint16, uint8, bool) {
		if op.lit[p] {
			return lit(op.litv[p])
		}
		if op.src[p].isVar {
			return uint16(op.src[p].idx), tInt, true
		}
		r := uint16(m + op.src[p].idx)
		return r, typ[r], true
	}

	var ops []intOp
	emit := func(src []loopOp) bool {
		for i := range src {
			op := &src[i]
			d := uint16(m + op.dst)
			// Unary opcodes read port 0; OpConst reads port 1; the rest
			// are binary. Resolve only the ports the opcode consumes, so
			// an unread Nil port cannot spuriously reject the plan.
			switch op.op {
			case graph.OpIdentity, graph.OpConst:
				p := 0
				if op.op == graph.OpConst {
					p = 1
				}
				a, t, ok := operand(op, p)
				if !ok {
					return false
				}
				ops = append(ops, intOp{op: iMov, a: a, d: d})
				typ[d] = t
			case graph.OpNeg, graph.OpAbs, graph.OpFloor:
				a, t, ok := operand(op, 0)
				if !ok || t != tInt {
					return false
				}
				k := iMov // floor of an int is the int, per evalUnary
				switch op.op {
				case graph.OpNeg:
					k = iNeg
				case graph.OpAbs:
					k = iAbs
				}
				ops = append(ops, intOp{op: k, a: a, d: d})
				typ[d] = tInt
			case graph.OpNot:
				a, t, ok := operand(op, 0)
				if !ok || t != tBool {
					return false
				}
				ops = append(ops, intOp{op: iNot, a: a, d: d})
				typ[d] = tBool
			case graph.OpAnd, graph.OpOr:
				a, ta, ok := operand(op, 0)
				b, tb, ok2 := operand(op, 1)
				if !ok || !ok2 || ta != tBool || tb != tBool {
					return false
				}
				k := iAnd
				if op.op == graph.OpOr {
					k = iOr
				}
				ops = append(ops, intOp{op: k, a: a, b: b, d: d})
				typ[d] = tBool
			case graph.OpEQ, graph.OpNE:
				a, ta, ok := operand(op, 0)
				b, tb, ok2 := operand(op, 1)
				if !ok || !ok2 || ta != tb {
					return false // mixed-type Equal: general loop only
				}
				k := iEQf
				if ta == tBool {
					k = iEQb
				}
				if op.op == graph.OpNE {
					k++ // iNEf / iNEb follow their EQ kinds
				}
				ops = append(ops, intOp{op: k, a: a, b: b, d: d})
				typ[d] = tBool
			case graph.OpLT, graph.OpLE, graph.OpGT, graph.OpGE,
				graph.OpAdd, graph.OpSub, graph.OpMul, graph.OpDiv,
				graph.OpMod, graph.OpMin, graph.OpMax:
				a, ta, ok := operand(op, 0)
				b, tb, ok2 := operand(op, 1)
				if !ok || !ok2 || ta != tInt || tb != tInt {
					return false
				}
				var k iopKind
				t := uint8(tInt)
				switch op.op {
				case graph.OpLT:
					k, t = iLT, tBool
				case graph.OpLE:
					k, t = iLE, tBool
				case graph.OpGT:
					k, t = iGT, tBool
				case graph.OpGE:
					k, t = iGE, tBool
				case graph.OpAdd:
					k = iAdd
				case graph.OpSub:
					k = iSub
				case graph.OpMul:
					k = iMul
				case graph.OpDiv:
					k = iDiv
				case graph.OpMod:
					k = iMod
				case graph.OpMin:
					k = iMin
				default:
					k = iMax
				}
				ops = append(ops, intOp{op: k, a: a, b: b, d: d})
				typ[d] = t
			default:
				return false // sqrt and anything unexpected
			}
		}
		return true
	}
	if !emit(lp.predOps) || !emit(lp.bodyOps) {
		return nil
	}

	// The predicate feeds AsBool, so it must be statically bool. A
	// circulating variable is int by discipline, so a variable predicate
	// rejects the specialization (the general loop handles it).
	if lp.predSrc.isVar {
		return nil
	}
	predReg := uint16(m + lp.predSrc.idx)
	if typ[predReg] != tBool {
		return nil
	}

	// Next-iteration sources must be int-typed, or the variables would
	// stop being int64 after one iteration.
	next := make([]uint16, m)
	for k, src := range lp.next {
		if src.isVar {
			next[k] = uint16(src.idx)
			continue
		}
		r := uint16(m + src.idx)
		if typ[r] != tInt {
			return nil
		}
		next[k] = r
	}

	return &intPlan{regs0: regs0, ops: ops, predReg: predReg, next: next}
}

// runLoopInt executes steady iterations over the int64 register file.
// It returns false — having touched nothing — when an entry value is
// not an integer, in which case the caller falls back to the general
// token.Value loop. Otherwise it runs until the first non-steady
// iteration (predicate false, div/mod by zero, or firing budget) and
// hands the current circulation values back through the caller's vars
// slice for the standard engine injection.
func (x *Exec) runLoopInt(lp *loopPlan, vars []token.Value, iterp *uint32) bool {
	ip := lp.ip
	for _, v := range vars {
		if v.Kind != token.KindInt {
			return false
		}
	}
	regs := make([]int64, len(ip.regs0))
	copy(regs, ip.regs0)
	m := lp.nVars
	for k := 0; k < m; k++ {
		regs[k] = vars[k].I
	}
	var nextBuf [8]int64
	next := nextBuf[:0]
	if m <= len(nextBuf) {
		next = nextBuf[:m]
	} else {
		next = make([]int64, m)
	}

	iter := uint32(1)
steady:
	for x.fired <= x.maxSteps {
		for i := range ip.ops {
			op := &ip.ops[i]
			a, b := regs[op.a], regs[op.b]
			var v int64
			switch op.op {
			case iAdd:
				v = a + b
			case iSub:
				v = a - b
			case iMul:
				v = a * b
			case iDiv:
				if b == 0 {
					break steady
				}
				v = a / b
			case iMod:
				if b == 0 {
					break steady
				}
				v = a % b
			case iMin:
				v = a
				if b < a {
					v = b
				}
			case iMax:
				v = a
				if b > a {
					v = b
				}
			case iLT:
				if float64(a) < float64(b) {
					v = 1
				}
			case iLE:
				if float64(a) <= float64(b) {
					v = 1
				}
			case iGT:
				if float64(a) > float64(b) {
					v = 1
				}
			case iGE:
				if float64(a) >= float64(b) {
					v = 1
				}
			case iEQf:
				if float64(a) == float64(b) {
					v = 1
				}
			case iNEf:
				if float64(a) != float64(b) {
					v = 1
				}
			case iEQb:
				if a == b {
					v = 1
				}
			case iNEb:
				if a != b {
					v = 1
				}
			case iAnd:
				v = a & b
			case iOr:
				v = a | b
			case iNot:
				v = 1 ^ a
			case iNeg:
				v = -a
			case iAbs:
				v = a
				if a < 0 {
					v = -a
				}
			default: // iMov
				v = a
			}
			regs[op.d] = v
		}
		if regs[ip.predReg] == 0 {
			break
		}
		for k, r := range ip.next {
			next[k] = regs[r]
		}
		for k := 0; k < m; k++ {
			regs[k] = next[k]
		}
		x.fired += lp.perIter
		iter++
	}
	for k := 0; k < m; k++ {
		vars[k] = token.Int(regs[k])
	}
	*iterp = iter
	return true
}
