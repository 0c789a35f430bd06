// Package token defines the data carried between instructions in the
// tagged-token dataflow machine: values, activity names, tags, and tokens.
//
// The formats follow Section 2.2.2 of the paper directly. An activity name
// is the four-tuple (u, c, s, i) — context, code block, statement,
// initiation — and a complete token is
//
//	<d, PE, tag, nt, port, data>
//
// where d classifies the token (d=0 normal, d=1 I-structure, d=2 PE
// controller), PE is the target processing element, nt is the number of
// operands the target instruction requires, and port says which operand
// this token supplies.
package token

import "fmt"

// Class is the d field of a token.
type Class uint8

// Token classes, exactly the d values of the paper.
const (
	Normal     Class = 0 // d=0: operand for an instruction
	IStructure Class = 1 // d=1: I-structure storage request or response
	Control    Class = 2 // d=2: PE controller (manager) request
)

func (c Class) String() string {
	switch c {
	case Normal:
		return "d=0"
	case IStructure:
		return "d=1"
	case Control:
		return "d=2"
	default:
		return fmt.Sprintf("d=%d", uint8(c))
	}
}

// Context identifies one invocation of a code block. Context 0 is the
// top-level (outermost) invocation. Fresh contexts are allocated by the
// machine's context manager; the namespace is conceptually unbounded and is
// mapped onto the finite machine by hashing (see Tag.HomePE).
type Context uint32

// ActivityName is the (u, c, s, i) four-tuple of Section 2.2.2.
type ActivityName struct {
	Context    Context // u: invocation of the code block
	CodeBlock  uint16  // c: which procedure or loop body
	Statement  uint16  // s: instruction number within the code block
	Initiation uint32  // i: loop iteration; 1 outside any loop
}

func (a ActivityName) String() string {
	return fmt.Sprintf("(u=%d,c=%d,s=%d,i=%d)", a.Context, a.CodeBlock, a.Statement, a.Initiation)
}

// Tag is the runtime name of an activity: the activity name plus mapping
// information. The PE assignment is derived from the activity name by the
// output section (see HomePE) but is carried explicitly on the token, as in
// Figure 2-4's routing translation table.
type Tag struct {
	Activity ActivityName
}

// HomePE maps an activity name onto one of n processing elements. The paper
// maps the unbounded activity namespace onto the machine by hashing; we use
// a deterministic mix of the context, code block, and initiation fields.
// All tokens of the same activity (same u, c, s, i) map to the same PE, and
// the two operands of one instruction therefore always meet in the same
// waiting-matching store. Instructions of one iteration spread across PEs
// via the statement-independent fields only when iterations differ; the
// statement field is deliberately excluded so that a matched pair and its
// instruction fetch stay local.
func (t Tag) HomePE(n int) int {
	if n <= 1 {
		return 0
	}
	a := t.Activity
	h := uint64(a.Context)*0x9E3779B1 ^ uint64(a.CodeBlock)*0x85EBCA77 ^ uint64(a.Initiation)*0xC2B2AE3D
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return int(h % uint64(n))
}

func (t Tag) String() string { return t.Activity.String() }

// Port numbers for instruction operands.
const (
	PortLeft  = 0
	PortRight = 1
)

// Token is the complete packet circulated by the machine,
// <d, PE, tag, nt, port, data>. Field order groups the three one-byte
// fields after the 12-byte tag, so they share the word the tag ends in:
// 8 (PE) + 16 (tag and bytes) + 24 (Value) = 48 bytes on 64-bit
// platforms. Tokens are the simulators' unit of data movement and their
// size is a first-order throughput factor.
type Token struct {
	PE    int   // destination processing element number
	Tag   Tag   // activity name (plus mapping info)
	Class Class // d
	NT    uint8 // total number of operands the target instruction needs
	Port  uint8 // which operand this token supplies
	Value Value // the datum
}

func (t Token) String() string {
	return fmt.Sprintf("<%s,PE=%d,%s,nt=%d,port=%d,%s>", t.Class, t.PE, t.Tag, t.NT, t.Port, t.Value)
}
