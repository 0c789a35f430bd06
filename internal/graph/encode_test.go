package graph

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/token"
)

func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	q, err := UnmarshalProgram(data)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return q
}

func TestEncodeRoundTripPreservesDump(t *testing.T) {
	for _, mk := range []func(*testing.T) *Program{buildArith, buildSquareCall} {
		p := mk(t)
		q := roundTrip(t, p)
		if p.Dump() != q.Dump() {
			t.Fatalf("round trip changed the program:\n--- original\n%s\n--- decoded\n%s", p.Dump(), q.Dump())
		}
	}
}

func TestEncodeRoundTripLoop(t *testing.T) {
	p := buildSumLoop(t)
	q := roundTrip(t, p)
	if p.Dump() != q.Dump() {
		t.Fatal("loop program changed across encode/decode")
	}
	res, err := NewInterp(q).Run(token.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].I != 55 {
		t.Fatalf("decoded program computed %s", res[0])
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := buildSumLoop(t)
	a, _ := p.MarshalBinary()
	b, _ := p.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("encoding must be deterministic")
	}
}

// TestEncodeLiteralKinds round-trips a literal of each kind and pins the
// object bytes. The hex was produced by the encoder of the unpacked
// token.Value layout (separate Ref and bool fields), so it also checks
// that packing bools into the value's integer word left the format alone.
func TestEncodeLiteralKinds(t *testing.T) {
	b := NewBuilder("lits")
	bb := b.NewBlock("main", 1)
	lits := []token.Value{token.Float(2.5), token.Int(-0x123456789), token.Int(0), token.Bool(true), token.Bool(false)}
	f := bb.OpLit(OpAdd, lits[0], 1, "float lit")
	i := bb.OpLit(OpMul, lits[1], 1, "int lit")
	c := bb.OpLit(OpLT, lits[2], 1, "")
	a := bb.OpLit(OpAnd, lits[3], 1, "true lit")
	o := bb.OpLit(OpOr, lits[4], 1, "false lit")
	ret := bb.Op(OpReturn, "")
	bb.Connect(bb.Entry(0), f, 0)
	bb.Connect(f, i, 0)
	bb.Connect(i, c, 0)
	bb.Connect(c, a, 0)
	bb.Connect(a, o, 0)
	bb.Connect(o, ret, 0)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const want = "545444410100046c6974730100046d61696e0100000007000108010001000000000007656e7472792030020901020000000000000440010002000000000009666c6f6174206c6974040901017798badcfeffffff010003000000000007696e74206c69740d01010100000000000000000100040000000000130901030101000500000000000874727565206c6974140901030001000600000000000966616c7365206c69741f000000000000"
	if got := hex.EncodeToString(data); got != want {
		t.Errorf("MarshalBinary = %s\nwant            %s", got, want)
	}
	q := roundTrip(t, p)
	for k, s := range []uint16{f, i, c, a, o} {
		in := q.Entry().Instr(s)
		if !in.HasLiteral || in.Literal != lits[k] {
			t.Errorf("literal %d: decoded %+v, want %s", k, in, lits[k])
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("TTD"),
		[]byte("TTDA\xff\xff"), // bad version
	}
	for _, c := range cases {
		if _, err := UnmarshalProgram(c); err == nil {
			t.Fatalf("UnmarshalProgram(%q) succeeded", c)
		}
	}
}

func TestUnmarshalRejectsTruncation(t *testing.T) {
	p := buildSumLoop(t)
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := UnmarshalProgram(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	p := buildArith(t)
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalProgram(append(data, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnmarshalValidatesSemantics(t *testing.T) {
	// corrupt a destination statement to point out of range; the decoder
	// must reject via validation rather than return a booby-trapped graph
	p := buildArith(t)
	data, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i := range data {
		if i < 6 {
			continue // magic/version
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x7F
		if _, err := UnmarshalProgram(mut); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no mutation was ever rejected — decoder not validating")
	}
}
