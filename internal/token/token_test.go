package token

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConversions(t *testing.T) {
	if v, err := Int(42).AsFloat(); err != nil || v != 42 {
		t.Fatalf("Int(42).AsFloat() = %v, %v", v, err)
	}
	if v, err := Float(2.5).AsFloat(); err != nil || v != 2.5 {
		t.Fatalf("Float(2.5).AsFloat() = %v, %v", v, err)
	}
	if v, err := Float(3.0).AsInt(); err != nil || v != 3 {
		t.Fatalf("Float(3.0).AsInt() = %v, %v", v, err)
	}
	if _, err := Float(3.5).AsInt(); err == nil {
		t.Fatal("non-integral float must not convert to int")
	}
	if _, err := Bool(true).AsFloat(); err == nil {
		t.Fatal("bool must not convert to float")
	}
	if _, err := Nil().AsBool(); err == nil {
		t.Fatal("nil must not convert to bool")
	}
	if r, err := NewRef(Ref{Base: 10, Len: 4}).AsRef(); err != nil || r.Base != 10 || r.Len != 4 {
		t.Fatalf("AsRef = %v, %v", r, err)
	}
}

// TestAsIntRange pins AsInt to the floats Go converts to int64 the same
// way on every platform: integral and inside [-2⁶³, 2⁶³).
func TestAsIntRange(t *testing.T) {
	for _, f := range []float64{1e19, -1e19, 0x1p63, 1e300, math.Inf(1), math.NaN()} {
		if n, err := Float(f).AsInt(); err == nil {
			t.Errorf("Float(%g).AsInt() = %d, want an error", f, n)
		}
	}
	for _, c := range []struct {
		f    float64
		want int64
	}{
		{-0x1p63, math.MinInt64},
		{0x1p63 - 1024, math.MaxInt64 - 1023}, // the largest float64 below 2⁶³
	} {
		if n, err := Float(c.f).AsInt(); err != nil || n != c.want {
			t.Errorf("Float(%g).AsInt() = %d, %v; want %d", c.f, n, err, c.want)
		}
	}
}

func TestValueEqualNumericTower(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Fatal("2 must equal 2.0")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Fatal("2 must not equal 2.5")
	}
	if Int(1).Equal(Bool(true)) {
		t.Fatal("int must not equal bool")
	}
	if !Bool(true).Equal(Bool(true)) || Bool(true).Equal(Bool(false)) {
		t.Fatal("bool equality broken")
	}
	if !Nil().Equal(Nil()) {
		t.Fatal("nil must equal nil")
	}
	if !NewRef(Ref{1, 2}).Equal(NewRef(Ref{1, 2})) || NewRef(Ref{1, 2}).Equal(NewRef(Ref{1, 3})) {
		t.Fatal("ref equality broken")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"·":         Nil(),
		"7":         Int(7),
		"2.5":       Float(2.5),
		"true":      Bool(true),
		"ref[5+10]": NewRef(Ref{Base: 5, Len: 10}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", v.Kind, got, want)
		}
	}
}

func TestHomePEDeterministicAndInRange(t *testing.T) {
	if err := quick.Check(func(u uint32, c uint16, s uint16, i uint32, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		tag := Tag{Activity: ActivityName{Context: Context(u), CodeBlock: c, Statement: s, Initiation: i}}
		pe := tag.HomePE(n)
		if pe < 0 || pe >= n {
			return false
		}
		return pe == tag.HomePE(n) // deterministic
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomePEIgnoresStatement(t *testing.T) {
	// Both operands of one instruction, and the instruction fetch itself,
	// must land on the same PE regardless of which statement is addressed.
	a := Tag{Activity: ActivityName{Context: 5, CodeBlock: 1, Statement: 10, Initiation: 3}}
	b := Tag{Activity: ActivityName{Context: 5, CodeBlock: 1, Statement: 99, Initiation: 3}}
	for _, n := range []int{1, 2, 7, 64} {
		if a.HomePE(n) != b.HomePE(n) {
			t.Fatalf("statement field leaked into PE mapping for n=%d", n)
		}
	}
}

func TestHomePESpreadsIterations(t *testing.T) {
	// Different initiations should spread across PEs: that is the whole
	// point of tagging — loop iterations unfold over the machine.
	const n = 16
	seen := map[int]bool{}
	for i := uint32(1); i <= 200; i++ {
		tag := Tag{Activity: ActivityName{Context: 1, CodeBlock: 1, Statement: 0, Initiation: i}}
		seen[tag.HomePE(n)] = true
	}
	if len(seen) < n/2 {
		t.Fatalf("200 iterations only touched %d of %d PEs", len(seen), n)
	}
}

func TestHomePESinglePE(t *testing.T) {
	tag := Tag{Activity: ActivityName{Context: 9, CodeBlock: 9, Statement: 9, Initiation: 9}}
	if tag.HomePE(1) != 0 || tag.HomePE(0) != 0 {
		t.Fatal("degenerate machine sizes must map to PE 0")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Class: IStructure, PE: 3, NT: 2, Port: 1, Value: Int(8),
		Tag: Tag{Activity: ActivityName{Context: 1, CodeBlock: 2, Statement: 3, Initiation: 4}}}
	want := "<d=1,PE=3,(u=1,c=2,s=3,i=4),nt=2,port=1,8>"
	if got := tok.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestClassString(t *testing.T) {
	if Normal.String() != "d=0" || IStructure.String() != "d=1" || Control.String() != "d=2" {
		t.Fatal("class strings must follow the paper's d notation")
	}
}
