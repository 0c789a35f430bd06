// Package vn is the von Neumann substrate the paper critiques: a small
// load/store ISA, a text assembler, and cycle-stepped processor cores in
// two flavors — the classic blocking core (one outstanding memory request,
// idles on latency) and a k-context multithreaded core that switches
// contexts on memory operations (the low-level context switching of
// Section 1.1, and the Denelcor HEP style). The baseline machines of
// Section 1.2 are assembled from these cores plus the internal/network
// fabrics.
package vn

import "fmt"

// Word is the machine word.
type Word = int64

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	HALT
	LI  // li rd, imm
	ADD // add rd, rs, rt
	SUB
	MUL
	DIV
	AND
	OR
	XOR
	SLT  // rd = rs < rt
	SLE  // rd = rs <= rt
	SEQ  // rd = rs == rt
	ADDI // addi rd, rs, imm
	LD   // ld rd, rs, offset     (rd = mem[rs+offset])
	ST   // st rs2, rs1, offset   (mem[rs1+offset] = rs2)
	BEQ  // beq rs, rt, label
	BNE
	BLT
	BGE
	J   // j label
	JAL // jal rd, label          (rd = return pc)
	JR  // jr rs
	FAA // faa rd, rs, rt         (rd = mem[rs]; mem[rs] += rt, atomically)
	TAS // tas rd, rs             (rd = mem[rs]; mem[rs] = 1, atomically)
	// HEP-style full/empty synchronization (Denelcor HEP; paper footnote
	// 2). Both retry in hardware until satisfiable — busy-waiting at the
	// memory, visible as wasted bank cycles.
	CNS // cns rd, rs             (wait until mem[rs] full; rd = mem[rs]; set empty)
	PRD // prd rt, rs             (wait until mem[rs] empty; mem[rs] = rt; set full)
	opCount
)

var opNames = [...]string{
	NOP: "nop", HALT: "halt", LI: "li", ADD: "add", SUB: "sub", MUL: "mul",
	DIV: "div", AND: "and", OR: "or", XOR: "xor", SLT: "slt", SLE: "sle",
	SEQ: "seq", ADDI: "addi", LD: "ld", ST: "st", BEQ: "beq", BNE: "bne",
	BLT: "blt", BGE: "bge", J: "j", JAL: "jal", JR: "jr", FAA: "faa", TAS: "tas",
	CNS: "cns", PRD: "prd",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction.
type Instr struct {
	Op         Op
	Rd, Rs, Rt uint8
	Imm        Word // immediate, memory offset, or branch/jump target pc
}

func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT:
		return i.Op.String()
	case LI:
		return fmt.Sprintf("li r%d, %d", i.Rd, i.Imm)
	case ADDI:
		return fmt.Sprintf("addi r%d, r%d, %d", i.Rd, i.Rs, i.Imm)
	case LD:
		return fmt.Sprintf("ld r%d, r%d, %d", i.Rd, i.Rs, i.Imm)
	case ST:
		return fmt.Sprintf("st r%d, r%d, %d", i.Rt, i.Rs, i.Imm)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs, i.Rt, i.Imm)
	case J:
		return fmt.Sprintf("j %d", i.Imm)
	case JAL:
		return fmt.Sprintf("jal r%d, %d", i.Rd, i.Imm)
	case JR:
		return fmt.Sprintf("jr r%d", i.Rs)
	case FAA:
		return fmt.Sprintf("faa r%d, r%d, r%d", i.Rd, i.Rs, i.Rt)
	case TAS:
		return fmt.Sprintf("tas r%d, r%d", i.Rd, i.Rs)
	case CNS:
		return fmt.Sprintf("cns r%d, r%d", i.Rd, i.Rs)
	case PRD:
		return fmt.Sprintf("prd r%d, r%d", i.Rt, i.Rs)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	}
}

// NumRegs is the architectural register count; r0 is hardwired to zero.
const NumRegs = 32

// Program is an assembled instruction sequence.
type Program struct {
	Instrs []Instr
	Labels map[string]int
}
