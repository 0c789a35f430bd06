package graph

import (
	"fmt"

	"repro/internal/token"
)

// Builder constructs a Program incrementally. It is the code-generation
// back end for the MiniID compiler and the workload generators.
type Builder struct {
	prog *Program
}

// NewBuilder returns a builder for a program with the given name. The
// caller must create block 0 (the entry block) first.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// NewBlock appends a code block and returns its builder. numArgs entry
// statements (OpIdentity) are created immediately so that argument/loop
// variable j enters at Entries[j].
func (b *Builder) NewBlock(name string, numArgs int) *BlockBuilder {
	blk := &CodeBlock{ID: BlockID(len(b.prog.Blocks)), Name: name}
	b.prog.Blocks = append(b.prog.Blocks, blk)
	bb := &BlockBuilder{prog: b.prog, blk: blk}
	for j := 0; j < numArgs; j++ {
		s := bb.Emit(Instruction{Op: OpIdentity, Comment: fmt.Sprintf("entry %d", j)})
		blk.Entries = append(blk.Entries, s)
	}
	return bb
}

// Finish validates and returns the program.
func (b *Builder) Finish() (*Program, error) {
	for _, blk := range b.prog.Blocks {
		for s := range blk.Instrs {
			in := &blk.Instrs[s]
			if in.Op != OpNop {
				in.NT = in.NumTokenOperands()
			}
		}
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}

// BlockBuilder appends instructions to one code block.
type BlockBuilder struct {
	prog *Program
	blk  *CodeBlock
}

// ID returns the block's id.
func (bb *BlockBuilder) ID() BlockID { return bb.blk.ID }

// Entry returns the statement index receiving argument j.
func (bb *BlockBuilder) Entry(j int) uint16 { return bb.blk.Entries[j] }

// AddEntry registers an already-emitted statement as the next entry point,
// used by the compiler when circulating loop variables are discovered
// incrementally. It returns the new entry's argument index.
func (bb *BlockBuilder) AddEntry(stmt uint16) int {
	bb.blk.Entries = append(bb.blk.Entries, stmt)
	return len(bb.blk.Entries) - 1
}

// NumInstrs returns the number of instructions emitted so far.
func (bb *BlockBuilder) NumInstrs() int { return len(bb.blk.Instrs) }

// Emit appends an instruction and returns its statement number. The NT
// field is computed automatically at Finish.
func (bb *BlockBuilder) Emit(in Instruction) uint16 {
	s := uint16(len(bb.blk.Instrs))
	bb.blk.Instrs = append(bb.blk.Instrs, in)
	return s
}

// Op emits a plain instruction with the given opcode and comment.
func (bb *BlockBuilder) Op(op Opcode, comment string) uint16 {
	return bb.Emit(Instruction{Op: op, Comment: comment})
}

// OpLit emits an instruction with a literal operand on the given port.
func (bb *BlockBuilder) OpLit(op Opcode, lit token.Value, port uint8, comment string) uint16 {
	return bb.Emit(Instruction{Op: op, HasLiteral: true, Literal: lit, LiteralPort: port, Comment: comment})
}

// Instr returns the (mutable) instruction at statement s.
func (bb *BlockBuilder) Instr(s uint16) *Instruction { return &bb.blk.Instrs[s] }

// Connect routes the output of statement from to port `port` of statement
// `to`.
func (bb *BlockBuilder) Connect(from, to uint16, port uint8) {
	in := bb.Instr(from)
	in.Dests = append(in.Dests, Dest{Stmt: to, Port: port})
}

// ConnectFalse routes the false-branch output of a switch at `from` to port
// `port` of statement `to`.
func (bb *BlockBuilder) ConnectFalse(from, to uint16, port uint8) {
	in := bb.Instr(from)
	in.DestsFalse = append(in.DestsFalse, Dest{Stmt: to, Port: port})
}

// ConnectReturn adds a caller-side return destination to an OpGetContext.
func (bb *BlockBuilder) ConnectReturn(getc, to uint16, port uint8) {
	in := bb.Instr(getc)
	in.ReturnDests = append(in.ReturnDests, Dest{Stmt: to, Port: port})
}

// Fan ensures statement s has a single consumer chain suitable for opcodes
// restricted to one destination (OpFetch, OpAllocate): it emits an
// OpIdentity fed by s and returns the identity's statement, through which
// arbitrarily many consumers may then be wired.
func (bb *BlockBuilder) Fan(s uint16) uint16 {
	id := bb.Op(OpIdentity, "fan")
	bb.Connect(s, id, 0)
	return id
}
