package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/token"
)

// Binary object format for compiled dataflow programs, so the compiler and
// the machines can be separate processes (the paper's workflow: the ID
// compiler produces graphs, the simulator and the emulation facility both
// interpret them).
//
// Layout (all integers little-endian):
//
//	magic   "TTDA"          4 bytes
//	version uint16          currently 1
//	name    string          (uvarint length + bytes)
//	nblocks uint16
//	per block:
//	  name     string
//	  nentries uint16, entries []uint16
//	  ninstrs  uint16
//	  per instruction: op, flags, literal?, dest lists, target, argindex
//
// Comments are preserved (they carry the source-level names shown by
// dumps). The format is versioned and self-validating: Unmarshal runs the
// structural validator before returning.

const (
	objMagic   = "TTDA"
	objVersion = 1
)

// instruction flag bits
const (
	flagHasLiteral = 1 << 0
	flagHasFalse   = 1 << 1
	flagHasReturn  = 1 << 2
	flagHasComment = 1 << 3
)

// MarshalBinary encodes the program in the TTDA object format.
func (p *Program) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(objMagic)
	writeU16(&b, objVersion)
	writeString(&b, p.Name)
	if len(p.Blocks) > math.MaxUint16 {
		return nil, fmt.Errorf("graph: too many blocks to encode")
	}
	writeU16(&b, uint16(len(p.Blocks)))
	for _, blk := range p.Blocks {
		writeString(&b, blk.Name)
		writeU16(&b, uint16(len(blk.Entries)))
		for _, e := range blk.Entries {
			writeU16(&b, e)
		}
		if len(blk.Instrs) > math.MaxUint16 {
			return nil, fmt.Errorf("graph: block %q too large to encode", blk.Name)
		}
		writeU16(&b, uint16(len(blk.Instrs)))
		for s := range blk.Instrs {
			if err := writeInstr(&b, &blk.Instrs[s]); err != nil {
				return nil, err
			}
		}
	}
	return b.Bytes(), nil
}

func writeInstr(b *bytes.Buffer, in *Instruction) error {
	b.WriteByte(byte(in.Op))
	flags := byte(0)
	if in.HasLiteral {
		flags |= flagHasLiteral
	}
	if len(in.DestsFalse) > 0 {
		flags |= flagHasFalse
	}
	if len(in.ReturnDests) > 0 {
		flags |= flagHasReturn
	}
	if in.Comment != "" {
		flags |= flagHasComment
	}
	b.WriteByte(flags)
	if in.HasLiteral {
		b.WriteByte(in.LiteralPort)
		if err := writeValue(b, in.Literal); err != nil {
			return err
		}
	}
	writeDests(b, in.Dests)
	if len(in.DestsFalse) > 0 {
		writeDests(b, in.DestsFalse)
	}
	if len(in.ReturnDests) > 0 {
		writeDests(b, in.ReturnDests)
	}
	writeU16(b, uint16(in.Target))
	b.WriteByte(in.ArgIndex)
	if in.Comment != "" {
		writeString(b, in.Comment)
	}
	return nil
}

func writeDests(b *bytes.Buffer, dests []Dest) {
	writeU16(b, uint16(len(dests)))
	for _, d := range dests {
		writeU16(b, d.Stmt)
		b.WriteByte(d.Port)
	}
}

func writeValue(b *bytes.Buffer, v token.Value) error {
	b.WriteByte(byte(v.Kind))
	switch v.Kind {
	case token.KindNil:
	case token.KindInt:
		writeU64(b, uint64(v.I))
	case token.KindFloat:
		writeU64(b, math.Float64bits(v.F))
	case token.KindBool:
		if t, _ := v.AsBool(); t {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case token.KindRef:
		r, _ := v.AsRef()
		writeU32(b, r.Base)
		writeU32(b, r.Len)
	default:
		return fmt.Errorf("graph: cannot encode value kind %v", v.Kind)
	}
	return nil
}

func writeU16(b *bytes.Buffer, v uint16) {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], v)
	b.Write(buf[:])
}

func writeU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func writeU64(b *bytes.Buffer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(buf[:])
}

func writeString(b *bytes.Buffer, s string) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(s)))
	b.Write(buf[:n])
	b.WriteString(s)
}

// objReader decodes with positional error reporting.
type objReader struct {
	data []byte
	off  int
}

func (r *objReader) fail(what string) error {
	return fmt.Errorf("graph: truncated object at offset %d (%s)", r.off, what)
}

func (r *objReader) bytes(n int, what string) ([]byte, error) {
	if r.off+n > len(r.data) {
		return nil, r.fail(what)
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *objReader) u8(what string) (byte, error) {
	b, err := r.bytes(1, what)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *objReader) u16(what string) (uint16, error) {
	b, err := r.bytes(2, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *objReader) u32(what string) (uint32, error) {
	b, err := r.bytes(4, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *objReader) u64(what string) (uint64, error) {
	b, err := r.bytes(8, what)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *objReader) str(what string) (string, error) {
	n, sz := binary.Uvarint(r.data[r.off:])
	if sz <= 0 || n > uint64(len(r.data)) {
		return "", r.fail(what)
	}
	r.off += sz
	b, err := r.bytes(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *objReader) dests(what string) ([]Dest, error) {
	n, err := r.u16(what)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Dest, n)
	for i := range out {
		s, err := r.u16(what)
		if err != nil {
			return nil, err
		}
		p, err := r.u8(what)
		if err != nil {
			return nil, err
		}
		out[i] = Dest{Stmt: s, Port: p}
	}
	return out, nil
}

func (r *objReader) value() (token.Value, error) {
	k, err := r.u8("value kind")
	if err != nil {
		return token.Nil(), err
	}
	switch token.Kind(k) {
	case token.KindNil:
		return token.Nil(), nil
	case token.KindInt:
		v, err := r.u64("int value")
		return token.Int(int64(v)), err
	case token.KindFloat:
		v, err := r.u64("float value")
		return token.Float(math.Float64frombits(v)), err
	case token.KindBool:
		v, err := r.u8("bool value")
		return token.Bool(v != 0), err
	case token.KindRef:
		base, err := r.u32("ref base")
		if err != nil {
			return token.Nil(), err
		}
		length, err := r.u32("ref len")
		return token.NewRef(token.Ref{Base: base, Len: length}), err
	default:
		return token.Nil(), fmt.Errorf("graph: unknown value kind %d at offset %d", k, r.off)
	}
}

// UnmarshalProgram decodes and validates a TTDA object.
func UnmarshalProgram(data []byte) (*Program, error) {
	r := &objReader{data: data}
	magic, err := r.bytes(4, "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != objMagic {
		return nil, fmt.Errorf("graph: not a TTDA object (bad magic %q)", magic)
	}
	ver, err := r.u16("version")
	if err != nil {
		return nil, err
	}
	if ver != objVersion {
		return nil, fmt.Errorf("graph: unsupported object version %d (want %d)", ver, objVersion)
	}
	p := &Program{}
	if p.Name, err = r.str("program name"); err != nil {
		return nil, err
	}
	nblocks, err := r.u16("block count")
	if err != nil {
		return nil, err
	}
	for bi := 0; bi < int(nblocks); bi++ {
		blk := &CodeBlock{ID: BlockID(bi)}
		if blk.Name, err = r.str("block name"); err != nil {
			return nil, err
		}
		nent, err := r.u16("entry count")
		if err != nil {
			return nil, err
		}
		for i := 0; i < int(nent); i++ {
			e, err := r.u16("entry")
			if err != nil {
				return nil, err
			}
			blk.Entries = append(blk.Entries, e)
		}
		ninstr, err := r.u16("instruction count")
		if err != nil {
			return nil, err
		}
		blk.Instrs = make([]Instruction, ninstr)
		for s := 0; s < int(ninstr); s++ {
			if err := r.instr(&blk.Instrs[s]); err != nil {
				return nil, err
			}
		}
		p.Blocks = append(p.Blocks, blk)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("graph: %d trailing bytes in object", len(data)-r.off)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("graph: object fails validation: %w", err)
	}
	return p, nil
}

func (r *objReader) instr(in *Instruction) error {
	op, err := r.u8("opcode")
	if err != nil {
		return err
	}
	in.Op = Opcode(op)
	flags, err := r.u8("flags")
	if err != nil {
		return err
	}
	if flags&flagHasLiteral != 0 {
		in.HasLiteral = true
		if in.LiteralPort, err = r.u8("literal port"); err != nil {
			return err
		}
		if in.Literal, err = r.value(); err != nil {
			return err
		}
	}
	if in.Dests, err = r.dests("dests"); err != nil {
		return err
	}
	if flags&flagHasFalse != 0 {
		if in.DestsFalse, err = r.dests("false dests"); err != nil {
			return err
		}
	}
	if flags&flagHasReturn != 0 {
		if in.ReturnDests, err = r.dests("return dests"); err != nil {
			return err
		}
	}
	t, err := r.u16("target")
	if err != nil {
		return err
	}
	in.Target = BlockID(t)
	if in.ArgIndex, err = r.u8("arg index"); err != nil {
		return err
	}
	if flags&flagHasComment != 0 {
		if in.Comment, err = r.str("comment"); err != nil {
			return err
		}
	}
	if in.Op != OpNop {
		in.NT = in.NumTokenOperands()
	}
	return nil
}
