package token

import "repro/internal/sim"

// Checkpoint serialization for tokens. The encoding is canonical: only the
// field selected by the value's kind is written, so encode→decode→encode
// is byte-identical regardless of stray union fields.

// SaveValue appends v.
func SaveValue(e *sim.Enc, v Value) {
	e.U8(uint8(v.Kind))
	switch v.Kind {
	case KindNil:
	case KindInt:
		e.I64(v.I)
	case KindFloat:
		e.F64(v.F)
	case KindBool:
		e.Bool(v.I != 0)
	case KindRef:
		r := v.ref()
		e.U32(r.Base)
		e.U32(r.Len)
	}
}

// LoadValue reads a value, poisoning the decoder on an unknown kind.
func LoadValue(d *sim.Dec) Value {
	k := Kind(d.U8())
	switch k {
	case KindNil:
		return Nil()
	case KindInt:
		return Int(d.I64())
	case KindFloat:
		return Float(d.F64())
	case KindBool:
		return Bool(d.Bool())
	case KindRef:
		return NewRef(Ref{Base: d.U32(), Len: d.U32()})
	default:
		d.Failf("invalid value kind %d", k)
		return Value{}
	}
}

// SaveActivity appends the (u, c, s, i) four-tuple.
func SaveActivity(e *sim.Enc, a ActivityName) {
	e.U32(uint32(a.Context))
	e.U16(a.CodeBlock)
	e.U16(a.Statement)
	e.U32(a.Initiation)
}

// LoadActivity reads an activity name.
func LoadActivity(d *sim.Dec) ActivityName {
	return ActivityName{
		Context:    Context(d.U32()),
		CodeBlock:  d.U16(),
		Statement:  d.U16(),
		Initiation: d.U32(),
	}
}

// SaveToken appends the complete token <d, PE, tag, nt, port, data>.
func SaveToken(e *sim.Enc, t Token) {
	e.Int(t.PE)
	SaveActivity(e, t.Tag.Activity)
	e.U8(uint8(t.Class))
	e.U8(t.NT)
	e.U8(t.Port)
	SaveValue(e, t.Value)
}

// LoadToken reads a token, poisoning the decoder on an invalid class.
func LoadToken(d *sim.Dec) Token {
	var t Token
	t.PE = d.Int()
	t.Tag.Activity = LoadActivity(d)
	t.Class = Class(d.U8())
	t.NT = d.U8()
	t.Port = d.U8()
	t.Value = LoadValue(d)
	if d.Err() == nil && t.Class > Control {
		d.Failf("invalid token class %d", t.Class)
	} else if d.Err() == nil && t.Port > PortRight {
		d.Failf("invalid operand port %d", t.Port)
	}
	return t
}
