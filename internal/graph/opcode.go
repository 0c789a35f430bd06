// Package graph defines the dataflow graph intermediate representation
// shared by the MiniID compiler, the cycle-accurate tagged-token machine
// (internal/core), and the hypercube emulator (internal/emulator), plus a
// sequential reference interpreter used as the correctness oracle for all
// of them.
//
// Programs are sets of code blocks (Section 2.2.2: "each procedure and each
// loop has a unique code block name"). Vertices are instructions, edges are
// destination lists. Loop entry/exit and procedure linkage use the paper's
// context-manipulating operators: L and L⁻¹ (context allocation and
// restoration), D and D⁻¹ (initiation-number arithmetic).
package graph

import "fmt"

// Opcode identifies the operation performed by an instruction.
type Opcode uint8

// Pure value opcodes (evaluated by Eval).
const (
	OpNop Opcode = iota
	OpIdentity
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpAbs
	OpMin
	OpMax
	OpSqrt
	OpFloor
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpAnd
	OpOr
	OpNot
	// OpIAddr computes the global I-structure address of element index
	// (port 1) of reference (port 0), with bounds checking.
	OpIAddr
	// OpLen returns the element count of a reference.
	OpLen
	// OpConst returns its port-1 operand (in practice a literal) when
	// triggered by any token on port 0: the compiler's constant generator.
	OpConst

	// Control and structural opcodes (interpreted by the engines).

	// OpSwitch routes the data operand (port 0) to Dests when the control
	// operand (port 1) is true and to DestsFalse when false.
	OpSwitch
	// OpGetContext allocates a fresh context for invoking Target (a
	// procedure or loop code block), recording the caller's activity and
	// ReturnDests with the context manager. Its operand is any convenient
	// trigger value; its output is a context handle.
	OpGetContext
	// OpSendArg sends the value operand (port 1) into the callee context
	// named by the handle operand (port 0): the token is retagged to
	// Target's entry statement for ArgIndex with initiation 1. This is the
	// procedure-call use of the paper's context-manipulation machinery.
	OpSendArg
	// OpL is the loop-entry operator of Figure 2-2. Operationally it is
	// identical to OpSendArg (retag into the loop's code block, i=1); it
	// has its own opcode so that compiled graphs read like the paper.
	OpL
	// OpD increments the initiation number: its output tokens carry i+1.
	// It implements the loop back-edge.
	OpD
	// OpDInv (D⁻¹) resets the initiation number to 1, normalizing tags of
	// values leaving a loop.
	OpDInv
	// OpReturn sends its operand to the destinations recorded for the
	// current context and restores the caller's tag. Returning on context
	// 0 delivers a program result.
	OpReturn
	// OpLInv (L⁻¹) is the loop-exit operator; operationally OpReturn.
	OpLInv
	// OpAllocate requests an I-structure of the given element count from
	// I-structure storage; the response token carries a Ref.
	OpAllocate
	// OpFetch issues an I-structure read (a SELECT become a FETCH, Section
	// 2.2.4) for the global address in its operand. The response is sent
	// by the I-structure controller directly to this instruction's single
	// destination, possibly much later and out of order.
	OpFetch
	// OpStore issues an I-structure write (an APPEND become a STORE) of
	// value (port 1) to global address (port 0). It produces no output
	// token.
	OpStore
	// OpSink absorbs its operand. Used for values that must be consumed
	// for bookkeeping but have no consumer.
	OpSink

	opcodeCount
)

// NumOpcodes is the number of defined opcodes; valid opcodes are
// 0 <= op < NumOpcodes. Useful for dense per-opcode tables.
const NumOpcodes = int(opcodeCount)

var opcodeNames = [...]string{
	OpNop:        "NOP",
	OpIdentity:   "ID",
	OpAdd:        "ADD",
	OpSub:        "SUB",
	OpMul:        "MUL",
	OpDiv:        "DIV",
	OpMod:        "MOD",
	OpNeg:        "NEG",
	OpAbs:        "ABS",
	OpMin:        "MIN",
	OpMax:        "MAX",
	OpSqrt:       "SQRT",
	OpFloor:      "FLOOR",
	OpLT:         "LT",
	OpLE:         "LE",
	OpGT:         "GT",
	OpGE:         "GE",
	OpEQ:         "EQ",
	OpNE:         "NE",
	OpAnd:        "AND",
	OpOr:         "OR",
	OpNot:        "NOT",
	OpIAddr:      "IADDR",
	OpLen:        "LEN",
	OpConst:      "CONST",
	OpSwitch:     "SWITCH",
	OpGetContext: "GETC",
	OpSendArg:    "SENDARG",
	OpL:          "L",
	OpD:          "D",
	OpDInv:       "D-1",
	OpReturn:     "RETURN",
	OpLInv:       "L-1",
	OpAllocate:   "ALLOC",
	OpFetch:      "FETCH",
	OpStore:      "STORE",
	OpSink:       "SINK",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("OP(%d)", uint8(op))
}

// Arity returns the number of operands the opcode consumes (counting
// literal operands, which do not arrive as tokens).
func (op Opcode) Arity() int {
	switch op {
	case OpNop:
		return 0
	case OpIdentity, OpNeg, OpAbs, OpSqrt, OpFloor, OpNot, OpLen,
		OpGetContext, OpD, OpDInv, OpReturn, OpLInv, OpAllocate, OpFetch, OpSink:
		return 1
	default:
		return 2
	}
}

// IsPure reports whether the opcode is a plain value computation, fully
// described by Eval, with ordinary destination semantics.
func (op Opcode) IsPure() bool {
	return op >= OpIdentity && op <= OpConst
}
