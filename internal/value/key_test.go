package value

import (
	"math"
	"math/rand"
	"testing"
)

// checkKeyPair fails unless KeyEqual(a, b) holds exactly when a and b
// have the same AppendKey encoding, symmetrically, and KeyEqual values
// hash alike from any running state.
func checkKeyPair(t *testing.T, a, b Value) {
	t.Helper()
	same := string(AppendKey(nil, a)) == string(AppendKey(nil, b))
	if got := KeyEqual(a, b); got != same || KeyEqual(b, a) != got {
		t.Fatalf("KeyEqual(%v %v, %v %v) = %v, KeyEqual(b, a) = %v; same encoding: %v",
			a.Kind(), a, b.Kind(), b, got, KeyEqual(b, a), same)
	}
	if same {
		for _, h := range []uint64{KeySeed, 0, 1 << 63} {
			if KeyHash(h, a) != KeyHash(h, b) {
				t.Fatalf("%v %v and %v %v are KeyEqual but hash apart from %#x", a.Kind(), a, b.Kind(), b, h)
			}
		}
	}
}

// keyEdges are the values whose encodings are easiest to get wrong in
// place: ints and the floats that equal them, ±0, NaNs with different
// payloads, the integers around 2⁵³ that round to one float64, ±2⁶³
// (the float 2⁶³ is outside int64, -2⁶³ is not), the smallest
// subnormals, strings that only the length prefix tells apart, nulls
// by mark, and the date and bool that share an int's payload.
var keyEdges = []Value{
	Int(0), Int(1), Int(-1), Int(5), Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1),
	Int(math.MaxInt64), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(1), Float(5), Float(-1), Float(0.5),
	Float(1 << 53), Float(1<<53 + 2), Float(0x1p63), Float(-0x1p63),
	Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0x7ff8000000000002)),
	Float(math.SmallestNonzeroFloat64), Float(-math.SmallestNonzeroFloat64),
	Str(""), Str("a"), Str("ab"), Str("b"), Str("\x00"), Str("5"),
	Null(0), Null(1), Null(5), Null(-1),
	Date(5), Date(1), Bool(true), Bool(false),
}

// TestKeyEqualMatchesAppendKey pins KeyEqual and KeyHash to the
// definitional encoding: the named pairs first, then every pair of
// keyEdges and the random draws of randomValue.
func TestKeyEqualMatchesAppendKey(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b  Value
		equal bool
	}{
		{Int(5), Float(5), true},
		{Float(0), Float(math.Copysign(0, -1)), true},
		{Int(0), Float(math.Copysign(0, -1)), true},
		{Float(nan), Float(nan), true},
		{Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0x7ff8000000000002)), false},
		{Int(1<<53 + 1), Float(1 << 53), false},
		{Int(1 << 53), Float(1 << 53), true},
		{Int(math.MinInt64), Float(-0x1p63), true},
		{Int(math.MaxInt64), Float(0x1p63), false},
		{Float(math.SmallestNonzeroFloat64), Float(0), false},
		{Float(math.SmallestNonzeroFloat64), Float(math.SmallestNonzeroFloat64), true},
		{Str("ab"), Str("ab"), true},
		{Str("a"), Str("ab"), false},
		{Str("5"), Int(5), false},
		{Null(1), Null(1), true},
		{Null(1), Null(2), false},
		{Null(5), Int(5), false},
		{Date(5), Int(5), false},
		{Bool(true), Int(1), false},
		{Bool(false), Int(0), false},
		{Bool(true), Bool(true), true},
	} {
		if got := KeyEqual(c.a, c.b); got != c.equal {
			t.Errorf("KeyEqual(%v %v, %v %v) = %v, want %v", c.a.Kind(), c.a, c.b.Kind(), c.b, got, c.equal)
		}
		checkKeyPair(t, c.a, c.b)
	}
	for _, a := range keyEdges {
		for _, b := range keyEdges {
			checkKeyPair(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		checkKeyPair(t, randomValue(rng), randomValue(rng))
	}
}

// keyFuzzValue makes a value of any kind from fuzzer input.
func keyFuzzValue(kind uint8, i int64, f float64, s string) Value {
	switch kind % 6 {
	case 0:
		return Null(i)
	case 1:
		return Int(i)
	case 2:
		return Float(f)
	case 3:
		return Str(s)
	case 4:
		return Date(i)
	default:
		return Bool(i&1 == 1)
	}
}

// FuzzKeyEqual checks KeyEqual ⇔ equal AppendKey encodings and
// KeyEqual ⇒ equal KeyHash on arbitrary pairs; the second value also
// takes the first's payload as a float, so that ints meet the floats
// they equal.
func FuzzKeyEqual(f *testing.F) {
	f.Add(uint8(1), int64(5), 5.0, "", uint8(2), int64(0), 0.0, "")
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", uint8(1), int64(0), 0.0, "")
	f.Add(uint8(3), int64(0), 0.0, "ab", uint8(3), int64(0), 0.0, "a")
	f.Add(uint8(4), int64(5), 0.0, "", uint8(1), int64(5), 0.0, "")
	f.Add(uint8(1), int64(1<<53+1), 0.0, "", uint8(2), int64(0), float64(1<<53), "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := keyFuzzValue(ka, ia, fa, sa), keyFuzzValue(kb, ib, fb, sb)
		checkKeyPair(t, a, b)
		checkKeyPair(t, a, Float(float64(ia)))
		checkKeyPair(t, a, a)
	})
}
