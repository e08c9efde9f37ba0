package value

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestValueIs32Bytes: a value is its kind, one 8-byte payload (a
// float's IEEE bits included) and a string header, so a 16-column
// lineitem row takes 512 bytes.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatEdgeResults pins, on the floats where a bit-level payload
// could go wrong (±0, NaN, ±Inf, the smallest subnormals, 2⁵³−1, 2⁵³,
// 2⁵³+2, ±2⁶³) and the ints beside them, what String, AppendKey,
// AsFloat and FoldKey return and how Compare orders each value against
// every value of the list: one character a column, "<", "=", ">" or
// "?" for incomparable. The results were recorded while a float was
// held as a float64 field.
func TestFloatEdgeResults(t *testing.T) {
	vals := []Value{Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.SmallestNonzeroFloat64), Float(-math.SmallestNonzeroFloat64),
		Float(1<<53 - 1), Float(1 << 53), Float(1<<53 + 2), Float(0x1p63), Float(-0x1p63),
		Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64), Int(0)}
	want := []struct {
		str, key string
		float    uint64 // AsFloat's bits
		fold     uint64 // FoldKey from KeySeed
		cmp      string
	}{
		{"0", "010000000000000000", 0x0, 0x529a2cdc8ff533ac, "===<><><<<<><<<<>="},
		{"-0", "010000000000000000", 0x8000000000000000, 0x529a2cdc8ff533ac, "===<><><<<<><<<<>="},
		{"NaN", "057ff8000000000001", 0x7ff8000000000001, 0x52e9d58e55f70c04, "=================="},
		{"+Inf", "057ff0000000000000", 0x7ff0000000000000, 0x7d7db2e0e495a48f, ">>==>>>>>>>>>>>>>>"},
		{"-Inf", "05fff0000000000000", 0xfff0000000000000, 0x4d5cc1b8300d900f, "<<=<=<<<<<<<<<<<<<"},
		{"5e-324", "050000000000000001", 0x1, 0x4f0d8663d895d13, ">>=<>=><<<<><<<<>>"},
		{"-5e-324", "058000000000000001", 0x8000000000000001, 0x82545cebb52e6d93, "<<=<><=<<<<><<<<><"},
		{"9.007199254740991e+15", "01001fffffffffffff", 0x433fffffffffffff, 0x134915d064a18e8b, ">>=<>>>=<<<>=<<<>>"},
		{"9.007199254740992e+15", "010020000000000000", 0x4340000000000000, 0xfce99e26ca6f8f0c, ">>=<>>>>=<<>>=<<>>"},
		{"9.007199254740994e+15", "010020000000000002", 0x4340000000000001, 0xfce9a026ca6f9272, ">>=<>>>>>=<>>>><>>"},
		{"9.223372036854776e+18", "0543e0000000000000", 0x43e0000000000000, 0x4d7edb88dcff0ce3, ">>=<>>>>>>=>>>>>>>"},
		{"-9.223372036854776e+18", "018000000000000000", 0xc3e0000000000000, 0xcffdb162079a442c, "<<=<><<<<<<=<<<<=<"},
		{"9007199254740991", "01001fffffffffffff", 0x433fffffffffffff, 0x134915d064a18e8b, ">>=<>>>=<<<>=<<<>>"},
		{"9007199254740992", "010020000000000000", 0x4340000000000000, 0xfce99e26ca6f8f0c, ">>=<>>>>=<<>>=<<>>"},
		{"9007199254740993", "010020000000000001", 0x4340000000000000, 0xfce99f26ca6f90bf, ">>=<>>>>><<>>>=<>>"},
		{"9223372036854775807", "017fffffffffffffff", 0x43e0000000000000, 0xd72bde2686fbcaa4, ">>=<>>>>>><>>>>=>>"},
		{"-9223372036854775808", "018000000000000000", 0xc3e0000000000000, 0xcffdb162079a442c, "<<=<><<<<<<=<<<<=<"},
		{"0", "010000000000000000", 0x0, 0x529a2cdc8ff533ac, "===<><><<<<><<<<>="},
	}
	for i, v := range vals {
		cmp := ""
		for _, w := range vals {
			c, ok := Compare(v, w)
			switch {
			case !ok:
				cmp += "?"
			case c < 0:
				cmp += "<"
			case c > 0:
				cmp += ">"
			default:
				cmp += "="
			}
		}
		w := want[i]
		if got := v.String(); got != w.str {
			t.Errorf("value %d: String %q, want %q", i, got, w.str)
		}
		if got := fmt.Sprintf("%x", AppendKey(nil, v)); got != w.key {
			t.Errorf("%s: AppendKey %s, want %s", w.str, got, w.key)
		}
		if got := math.Float64bits(v.AsFloat()); got != w.float {
			t.Errorf("%s: AsFloat bits %#x, want %#x", w.str, got, w.float)
		}
		if got := FoldKey(KeySeed, v); got != w.fold {
			t.Errorf("%s: FoldKey %#x, want %#x", w.str, got, w.fold)
		}
		if cmp != w.cmp {
			t.Errorf("%s: Compare against the list %s, want %s", w.str, cmp, w.cmp)
		}
	}
}

// TestFloatIdentity pins == on floats, which compares their bits: ±0
// are two values (Compare calls them equal), and a NaN is itself (to
// Compare it equals everything). So a map keyed on Value holds ±0 as
// two keys and a repeated NaN as one.
func TestFloatIdentity(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	if Float(negZero) == Float(0) {
		t.Error("Float(-0.0) == Float(0.0), want distinct values")
	}
	if Float(nan) != Float(nan) {
		t.Error("Float(NaN) != Float(NaN), want one value")
	}
	seen := map[Value]bool{Float(0): true, Float(negZero): true, Float(nan): true}
	seen[Float(nan)] = true
	if len(seen) != 3 {
		t.Errorf("map over 0, -0, NaN, NaN holds %d keys, want 3", len(seen))
	}
}
