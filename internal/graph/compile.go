package graph

import "repro/internal/token"

// This file implements the ahead-of-time compilation stage: Compile lowers
// a validated Program into a CompiledGraph, an immutable execution plan the
// reference interpreter and the cycle-accurate machine execute instead of
// re-deriving per-token facts from the IR. The plan precomputes everything
// the hot paths used to look up on every token:
//
//   - a dense dispatch kind per instruction (one switch over ExecKind
//     replaces the IsPure test plus the opcode switch);
//   - flattened destination arrays whose entries carry the destination's
//     nt field, so emitting a token no longer fetches the destination
//     instruction;
//   - a static match-slot index per two-operand statement, so a
//     waiting-matching store can be an activation-frame slot array instead
//     of a per-activity hash map (the dense-table idea of
//     internal/core/matchtable.go pushed to compile time).
//
// Plans are pure accelerations: executing a plan is observably identical —
// results, firing counts, cycle counts, statistics — to interpreting the
// program it was compiled from.

// ExecKind is the dense dispatch class of an instruction. Every opcode
// maps to exactly one kind; engines switch on the kind instead of testing
// IsPure and re-switching on the opcode.
type ExecKind uint8

// Dispatch kinds.
const (
	KindNop        ExecKind = iota
	KindPure                // Eval-able value computation (OpIdentity..OpConst)
	KindSwitch              // OpSwitch
	KindGetContext          // OpGetContext (d=2 manager request)
	KindSendArg             // OpSendArg, OpL (retag into callee)
	KindD                   // OpD (initiation+1)
	KindDInv                // OpDInv (initiation:=1)
	KindReturn              // OpReturn, OpLInv (retag to caller)
	KindAllocate            // OpAllocate (d=2 manager request)
	KindFetch               // OpFetch (d=1 I-structure read)
	KindStore               // OpStore (d=1 I-structure write)
	KindSink                // OpSink (absorb)
)

// kindOf maps opcodes to dispatch kinds.
func kindOf(op Opcode) ExecKind {
	switch {
	case op == OpNop:
		return KindNop
	case op.IsPure():
		return KindPure
	}
	switch op {
	case OpSwitch:
		return KindSwitch
	case OpGetContext:
		return KindGetContext
	case OpSendArg, OpL:
		return KindSendArg
	case OpD:
		return KindD
	case OpDInv:
		return KindDInv
	case OpReturn, OpLInv:
		return KindReturn
	case OpAllocate:
		return KindAllocate
	case OpFetch:
		return KindFetch
	case OpStore:
		return KindStore
	default:
		return KindSink
	}
}

// CDest is one flattened destination arc. It carries the destination
// statement's nt field so token construction needs no instruction fetch.
type CDest struct {
	Stmt uint16
	Port uint8
	// NT is the destination instruction's token-operand count.
	NT uint8
}

// CInstr is one compiled instruction: the Instruction fields the engines
// read on the hot path, laid out for dispatch, plus the static match slot.
type CInstr struct {
	Kind ExecKind
	Op   Opcode
	NT   uint8

	HasLit  bool
	LitPort uint8
	Lit     token.Value

	ArgIndex uint8
	Target   BlockID

	// MatchSlot is this statement's slot in its block's activation frame
	// (dense, assigned in statement order over two-operand statements), or
	// -1 for instructions that fire on a single token.
	MatchSlot int32

	// Dests, DestsFalse and RetDests are subslices of the plan's shared
	// destination arena.
	Dests, DestsFalse, RetDests []CDest
}

// CBlock is one compiled code block.
type CBlock struct {
	ID      BlockID
	Name    string
	Entries []uint16
	// EntryNT[j] is the nt field of entry statement j, so cross-block
	// sends (arguments, SEND-ARG) build tokens without an instruction
	// fetch.
	EntryNT []uint8
	Instrs  []CInstr
	// Slots is the activation-frame size: the number of two-operand
	// statements in the block.
	Slots int
}

// CompiledGraph is an immutable execution plan. It references the Program
// it was compiled from; neither may be mutated after Compile returns.
type CompiledGraph struct {
	// Prog is the program this plan executes, exactly as given to Compile.
	Prog   *Program
	Blocks []CBlock

	destArena []CDest
}

// Block returns the compiled block with the given id.
func (cg *CompiledGraph) Block(id BlockID) *CBlock { return &cg.Blocks[id] }

// Compile lowers a validated program into an execution plan that executes
// the program exactly as given. It fails on invalid programs.
func Compile(p *Program) (*CompiledGraph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}

	cg := &CompiledGraph{Prog: p, Blocks: make([]CBlock, len(p.Blocks))}

	// Pass 1: frame slots, destination arena sizing.
	nDests := 0
	for bi, blk := range p.Blocks {
		cb := &cg.Blocks[bi]
		cb.ID = blk.ID
		cb.Name = blk.Name
		cb.Entries = blk.Entries
		cb.EntryNT = make([]uint8, len(blk.Entries))
		for j, e := range blk.Entries {
			cb.EntryNT[j] = blk.Instrs[e].NT
		}
		for s := range blk.Instrs {
			in := &blk.Instrs[s]
			nDests += len(in.Dests) + len(in.DestsFalse) + len(in.ReturnDests)
			if in.Op != OpNop && in.NT >= 2 {
				cb.Slots++
			}
		}
	}
	cg.destArena = make([]CDest, 0, nDests)

	// Pass 2: lower instructions.
	for bi, blk := range p.Blocks {
		cb := &cg.Blocks[bi]
		cb.Instrs = make([]CInstr, len(blk.Instrs))
		slot := int32(0)
		for s := range blk.Instrs {
			in := &blk.Instrs[s]
			ci := &cb.Instrs[s]
			*ci = CInstr{
				Kind:      kindOf(in.Op),
				Op:        in.Op,
				NT:        in.NT,
				HasLit:    in.HasLiteral,
				LitPort:   in.LiteralPort,
				Lit:       in.Literal,
				ArgIndex:  in.ArgIndex,
				Target:    in.Target,
				MatchSlot: -1,
			}
			if in.Op != OpNop && in.NT >= 2 {
				ci.MatchSlot = slot
				slot++
			}
			ci.Dests = cg.lowerDests(blk, in.Dests)
			ci.DestsFalse = cg.lowerDests(blk, in.DestsFalse)
			ci.RetDests = cg.lowerDests(blk, in.ReturnDests)
		}
	}
	return cg, nil
}

// lowerDests appends dests to the arena with their targets' nt fields.
func (cg *CompiledGraph) lowerDests(blk *CodeBlock, dests []Dest) []CDest {
	if len(dests) == 0 {
		return nil
	}
	base := len(cg.destArena)
	for _, d := range dests {
		cg.destArena = append(cg.destArena, CDest{
			Stmt: d.Stmt,
			Port: d.Port,
			NT:   blk.Instrs[d.Stmt].NT,
		})
	}
	return cg.destArena[base:len(cg.destArena):len(cg.destArena)]
}
