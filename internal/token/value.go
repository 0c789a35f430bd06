package token

import (
	"fmt"
	"math"
)

// Kind discriminates the datum carried by a Value.
type Kind uint8

// Value kinds.
const (
	KindNil   Kind = iota // no datum (pure trigger/signal tokens)
	KindInt               // 64-bit signed integer
	KindFloat             // 64-bit float
	KindBool              // boolean
	KindRef               // reference to an I-structure (base address + length)
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Ref is a reference to an I-structure: a base address in the global
// I-structure address space plus the element count. Tokens carry only
// references; the elements live in I-structure storage (Section 2.2.4).
type Ref struct {
	Base uint32
	Len  uint32
}

// Value is the datum field of a token. It is a small tagged union rather
// than an interface so tokens stay allocation-free on the hot path. I holds
// an Int and also the payloads of the two narrow kinds: a Bool as 0 or 1,
// a Ref as Base | Len<<32 (read them with AsBool and AsRef). F holds a
// Float. That is two words and the Kind byte, 24 bytes on 64-bit
// platforms: values are copied through several queues per instruction,
// and the simulators' throughput tracks this size.
type Value struct {
	I    int64
	F    float64
	Kind Kind
}

// Nil returns the empty value.
func Nil() Value { return Value{Kind: KindNil} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewRef returns an I-structure reference value.
func NewRef(r Ref) Value {
	return Value{Kind: KindRef, I: int64(uint64(r.Base) | uint64(r.Len)<<32)}
}

// ref unpacks a KindRef value's payload.
func (v Value) ref() Ref {
	return Ref{Base: uint32(v.I), Len: uint32(uint64(v.I) >> 32)}
}

// AsFloat converts numeric values to float64; it returns an error for
// non-numeric kinds. Ints convert exactly (up to float precision).
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KindFloat:
		return v.F, nil
	case KindInt:
		return float64(v.I), nil
	default:
		return 0, fmt.Errorf("token: value %s is not numeric", v)
	}
}

// AsInt converts numeric values to int64. Floats convert only if integral
// and inside [-2⁶³, 2⁶³), the range where Go defines int64(f): outside it
// the conversion's result differs between platforms.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt:
		return v.I, nil
	case KindFloat:
		if v.F != math.Trunc(v.F) || math.IsInf(v.F, 0) {
			return 0, fmt.Errorf("token: float %g is not integral", v.F)
		}
		if v.F < -0x1p63 || v.F >= 0x1p63 {
			return 0, fmt.Errorf("token: float %g is outside the int64 range", v.F)
		}
		return int64(v.F), nil
	default:
		return 0, fmt.Errorf("token: value %s is not numeric", v)
	}
}

// AsBool returns the boolean payload or an error for other kinds.
func (v Value) AsBool() (bool, error) {
	if v.Kind != KindBool {
		return false, fmt.Errorf("token: value %s is not boolean", v)
	}
	return v.I != 0, nil
}

// AsRef returns the I-structure reference payload or an error.
func (v Value) AsRef() (Ref, error) {
	if v.Kind != KindRef {
		return Ref{}, fmt.Errorf("token: value %s is not a reference", v)
	}
	return v.ref(), nil
}

// Equal reports semantic equality. Int and float compare numerically across
// kinds so that a literal 2 equals 2.0, mirroring MiniID's numeric tower.
func (v Value) Equal(w Value) bool {
	if (v.Kind == KindInt || v.Kind == KindFloat) && (w.Kind == KindInt || w.Kind == KindFloat) {
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return a == b
	}
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindBool:
		return (v.I != 0) == (w.I != 0)
	case KindRef:
		return v.I == w.I
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "·"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindBool:
		return fmt.Sprintf("%t", v.I != 0)
	case KindRef:
		r := v.ref()
		return fmt.Sprintf("ref[%d+%d]", r.Base, r.Len)
	default:
		return "?"
	}
}
