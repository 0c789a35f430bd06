package graph

import (
	"fmt"

	"repro/internal/token"
)

// BlockID names a code block within a program. Block 0 is always the
// program entry block.
type BlockID uint16

// Dest addresses one operand port of one instruction in the same code
// block as the producer. Cross-block transfers happen only through the
// context-manipulating opcodes.
type Dest struct {
	Stmt uint16
	Port uint8
}

func (d Dest) String() string { return fmt.Sprintf("s%d.%d", d.Stmt, d.Port) }

// Instruction is one vertex of a dataflow graph.
type Instruction struct {
	Op Opcode

	// NT is the number of operands that arrive as tokens (the paper's nt
	// field). It equals Op.Arity() minus one if a literal is present.
	NT uint8

	// Literal, if HasLiteral, is a compile-time operand occupying
	// LiteralPort; the instruction then fires on NT tokens filling the
	// remaining ports.
	HasLiteral  bool
	Literal     token.Value
	LiteralPort uint8

	// Dests receives the result (the true branch for OpSwitch).
	Dests []Dest
	// DestsFalse receives OpSwitch's data operand when control is false.
	DestsFalse []Dest

	// Target is the callee code block for OpGetContext; entry statements
	// of the Target are used by OpSendArg/OpL via ArgIndex.
	Target BlockID
	// ArgIndex selects which Target entry an OpSendArg/OpL feeds.
	ArgIndex uint8
	// ReturnDests, on OpGetContext, are the caller-side destinations that
	// will receive the value passed to OpReturn/OpLInv in the allocated
	// context.
	ReturnDests []Dest

	// Comment is an optional human label shown in dumps (e.g. the source
	// variable the instruction computes).
	Comment string
}

// NumTokenOperands computes the nt field implied by the opcode and literal.
func (in *Instruction) NumTokenOperands() uint8 {
	n := in.Op.Arity()
	if in.HasLiteral {
		n--
	}
	if n < 0 {
		n = 0
	}
	return uint8(n)
}

// CodeBlock is a procedure or loop body: a numbered list of instructions
// plus the entry statements that receive arguments or circulating loop
// variables.
type CodeBlock struct {
	ID   BlockID
	Name string
	// Entries[j] is the statement that receives argument/loop-variable j.
	// Entry instructions are ordinary instructions (usually OpIdentity)
	// whose port 0 receives the incoming token.
	Entries []uint16
	Instrs  []Instruction
}

// Instr returns the instruction at statement s.
func (b *CodeBlock) Instr(s uint16) *Instruction { return &b.Instrs[s] }

// Program is a complete compiled dataflow program. Block 0 is the entry
// block; injecting its arguments (via entry statements) under context 0
// starts execution, and OpReturn under context 0 delivers results.
type Program struct {
	Name   string
	Blocks []*CodeBlock
}

// Block returns the code block with the given id.
func (p *Program) Block(id BlockID) *CodeBlock { return p.Blocks[id] }

// Entry returns the entry (block 0) code block.
func (p *Program) Entry() *CodeBlock { return p.Blocks[0] }

// NumInstructions returns the static instruction count across all blocks.
func (p *Program) NumInstructions() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Validate checks structural well-formedness: destination statements and
// ports in range, nt consistency, switch/control shape, call linkage. A nil
// return guarantees the engines cannot hit out-of-range faults on this
// program.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("graph: program %q has no code blocks", p.Name)
	}
	for id, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("graph: block %d is nil", id)
		}
		if b.ID != BlockID(id) {
			return fmt.Errorf("graph: block %q has id %d at index %d", b.Name, b.ID, id)
		}
		for _, e := range b.Entries {
			if int(e) >= len(b.Instrs) {
				return fmt.Errorf("graph: block %q entry s%d out of range", b.Name, e)
			}
		}
		for s := range b.Instrs {
			if err := p.validateInstr(b, uint16(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateInstr(b *CodeBlock, s uint16) error {
	in := b.Instr(s)
	where := func() string { return fmt.Sprintf("block %q s%d (%s)", b.Name, s, in.Op) }

	if in.Op == OpNop {
		return nil
	}
	if int(in.Op) >= int(opcodeCount) {
		return fmt.Errorf("graph: %s: unknown opcode", where())
	}
	if want := in.NumTokenOperands(); in.NT != want {
		return fmt.Errorf("graph: %s: nt=%d, want %d", where(), in.NT, want)
	}
	if in.NT == 0 {
		return fmt.Errorf("graph: %s: instruction can never fire (nt=0)", where())
	}
	if in.HasLiteral && int(in.LiteralPort) >= in.Op.Arity() {
		return fmt.Errorf("graph: %s: literal port %d out of range", where(), in.LiteralPort)
	}

	checkDests := func(label string, dests []Dest) error {
		for _, d := range dests {
			if int(d.Stmt) >= len(b.Instrs) {
				return fmt.Errorf("graph: %s: %s dest %s out of range", where(), label, d)
			}
			t := b.Instr(d.Stmt)
			if int(d.Port) >= t.Op.Arity() {
				return fmt.Errorf("graph: %s: %s dest %s targets nonexistent port of %s", where(), label, d, t.Op)
			}
			if t.HasLiteral && d.Port == t.LiteralPort {
				return fmt.Errorf("graph: %s: %s dest %s targets literal port of %s", where(), label, d, t.Op)
			}
		}
		return nil
	}
	if err := checkDests("", in.Dests); err != nil {
		return err
	}
	if err := checkDests("false", in.DestsFalse); err != nil {
		return err
	}

	switch in.Op {
	case OpSwitch:
		if in.HasLiteral && in.LiteralPort == token.PortRight {
			return fmt.Errorf("graph: %s: switch with constant control", where())
		}
	case OpGetContext:
		if int(in.Target) >= len(p.Blocks) {
			return fmt.Errorf("graph: %s: target block %d out of range", where(), in.Target)
		}
		if len(in.ReturnDests) == 0 {
			return fmt.Errorf("graph: %s: no return destinations", where())
		}
		for _, d := range in.ReturnDests {
			if int(d.Stmt) >= len(b.Instrs) {
				return fmt.Errorf("graph: %s: return dest %s out of range", where(), d)
			}
		}
		if len(in.Dests) == 0 {
			return fmt.Errorf("graph: %s: context handle has no consumers", where())
		}
	case OpSendArg, OpL:
		// The handle arrives on port 0 at run time; Target/ArgIndex are
		// resolved through the handle's context record, so the static
		// Target here is advisory. Validate ArgIndex against it if set.
		if int(in.Target) < len(p.Blocks) {
			tb := p.Blocks[in.Target]
			if int(in.ArgIndex) >= len(tb.Entries) {
				return fmt.Errorf("graph: %s: arg index %d exceeds %q entries", where(), in.ArgIndex, tb.Name)
			}
		}
	case OpFetch, OpAllocate:
		if len(in.Dests) != 1 {
			return fmt.Errorf("graph: %s: must have exactly one destination, has %d", where(), len(in.Dests))
		}
	case OpStore, OpSink, OpReturn, OpLInv:
		if len(in.Dests) != 0 || len(in.DestsFalse) != 0 {
			return fmt.Errorf("graph: %s: must have no destinations", where())
		}
	}
	if in.Op != OpSwitch && len(in.DestsFalse) != 0 {
		return fmt.Errorf("graph: %s: false destinations on non-switch", where())
	}
	switch in.Op {
	case OpStore, OpSink, OpReturn, OpLInv, OpSwitch, OpSendArg, OpL:
		// These either retag into another block or legitimately absorb.
	default:
		if len(in.Dests) == 0 {
			return fmt.Errorf("graph: %s: result has no destination", where())
		}
	}
	return nil
}
