package token

import (
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestValueCodecBytes pins SaveValue's bytes and String's text for every
// kind, at the edges of each payload. Value packs a Ref and a Bool into
// its I word; the checkpoint encoding and the printed form must not see
// that. The hex was produced by the encoder of the unpacked layout (a
// Value with separate Ref and bool fields).
func TestValueCodecBytes(t *testing.T) {
	cases := []struct {
		v    Value
		hex  string
		text string
	}{
		{Nil(), "00", "·"},
		{Int(0), "010000000000000000", "0"},
		{Int(42), "012a00000000000000", "42"},
		{Int(-1), "01ffffffffffffffff", "-1"},
		{Int(math.MinInt64), "010000000000000080", "-9223372036854775808"},
		{Int(math.MaxInt64), "01ffffffffffffff7f", "9223372036854775807"},
		{Float(2.5), "020000000000000440", "2.5"},
		{Float(math.Copysign(0, -1)), "020000000000000080", "-0"},
		{Float(math.Inf(-1)), "02000000000000f0ff", "-Inf"},
		{Bool(true), "0301", "true"},
		{Bool(false), "0300", "false"},
		{NewRef(Ref{}), "040000000000000000", "ref[0+0]"},
		{NewRef(Ref{Base: 5, Len: 10}), "04050000000a000000", "ref[5+10]"},
		{NewRef(Ref{Base: math.MaxUint32, Len: math.MaxUint32}), "04ffffffffffffffff", "ref[4294967295+4294967295]"},
		{NewRef(Ref{Len: 1 << 31}), "040000000000000080", "ref[0+2147483648]"}, // the packed word's sign bit
		{NewRef(Ref{Base: 1 << 31, Len: 1}), "040000008001000000", "ref[2147483648+1]"},
	}
	for _, c := range cases {
		var e sim.Enc
		SaveValue(&e, c.v)
		if got := hex.EncodeToString(e.Bytes()); got != c.hex {
			t.Errorf("SaveValue(%s) = %s, want %s", c.text, got, c.hex)
		}
		d := sim.NewDec(e.Bytes())
		got := LoadValue(d)
		if err := d.Err(); err != nil || d.Remaining() != 0 {
			t.Errorf("LoadValue(%s): err %v, %d bytes left", c.text, err, d.Remaining())
		}
		if got != c.v || math.Signbit(got.F) != math.Signbit(c.v.F) {
			t.Errorf("LoadValue(SaveValue(%s)) = %#v, want %#v", c.text, got, c.v)
		}
		if s := c.v.String(); s != c.text {
			t.Errorf("String() = %q, want %q", s, c.text)
		}
	}
}
