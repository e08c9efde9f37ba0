package value

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"certsql/internal/tvl"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 || Int(7).Kind() != KindInt {
		t.Error("Int")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float")
	}
	if Str("x").AsString() != "x" {
		t.Error("Str")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool")
	}
	if Null(3).NullID() != 3 || !Null(3).IsNull() {
		t.Error("Null")
	}
	if Int(1).IsNull() {
		t.Error("Int considered null")
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AsInt on string":    func() { Str("x").AsInt() },
		"AsString on int":    func() { Int(1).AsString() },
		"AsBool on int":      func() { Int(1).AsBool() },
		"AsDate on int":      func() { Int(1).AsDate() },
		"NullID on constant": func() { Int(1).NullID() },
		"AsFloat on string":  func() { Str("x").AsFloat() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDates(t *testing.T) {
	d, err := ParseDate("1992-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindDate {
		t.Fatal("kind")
	}
	d2 := MustDate("1992-01-02")
	if d2.AsDate()-d.AsDate() != 1 {
		t.Errorf("consecutive dates differ by %d days", d2.AsDate()-d.AsDate())
	}
	if d.String() != "1992-01-01" {
		t.Errorf("String = %q", d.String())
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate accepted garbage")
	}
	epoch := MustDate("1970-01-01")
	if epoch.AsDate() != 0 {
		t.Errorf("epoch = %d days", epoch.AsDate())
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(2), Float(2.0), 0, true}, // numeric coercion
		{Float(1.5), Int(2), -1, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{MustDate("1995-01-01"), MustDate("1996-01-01"), -1, true},
		{Bool(false), Bool(true), -1, true},
		{Int(1), Str("1"), 0, false}, // incomparable kinds
		{Null(1), Int(1), 0, false},  // nulls are not constants
		{Str("x"), Bool(true), 0, false},
	}
	for _, c := range cases {
		cmp, ok := Compare(c.a, c.b)
		if ok != c.ok || (ok && sign(cmp) != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d, %v", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
	// Numbers compare as their exact values do (math/big, no float64
	// rounding on the way), so numeric equality is transitive.
	exact := func(v Value) *big.Float {
		if v.Kind() == KindInt {
			return new(big.Float).SetInt64(v.AsInt())
		}
		return new(big.Float).SetFloat64(v.AsFloat())
	}
	for _, a := range numericEdges {
		for _, b := range numericEdges {
			cmp, ok := Compare(a, b)
			if want := exact(a).Cmp(exact(b)); !ok || sign(cmp) != want {
				t.Errorf("Compare(%v %v, %v %v) = %d, %v; exact order %d", a.Kind(), a, b.Kind(), b, cmp, ok, want)
			}
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestEqualSemantics(t *testing.T) {
	// SQL 3VL: any null makes equality unknown — even the same mark.
	if Equal(SQL3VL, Null(1), Null(1)) != tvl.Unknown {
		t.Error("SQL: ⊥1 = ⊥1 should be unknown")
	}
	if Equal(SQL3VL, Null(1), Int(1)) != tvl.Unknown {
		t.Error("SQL: ⊥1 = 1 should be unknown")
	}
	if Equal(SQL3VL, Int(1), Int(1)) != tvl.True {
		t.Error("SQL: 1 = 1 should be true")
	}
	// Naive: marks compare by identity.
	if Equal(Naive, Null(1), Null(1)) != tvl.True {
		t.Error("naive: ⊥1 = ⊥1 should be true")
	}
	if Equal(Naive, Null(1), Null(2)) != tvl.False {
		t.Error("naive: ⊥1 = ⊥2 should be false")
	}
	if Equal(Naive, Null(1), Int(1)) != tvl.False {
		t.Error("naive: ⊥1 = 1 should be false")
	}
}

func TestOrderSemantics(t *testing.T) {
	lt := func(c int) bool { return c < 0 }
	if OrderCmp(SQL3VL, Null(1), Int(5), lt) != tvl.Unknown {
		t.Error("SQL: ⊥ < 5 should be unknown")
	}
	if OrderCmp(Naive, Null(1), Int(5), lt) != tvl.False {
		t.Error("naive: ⊥ < 5 should be false")
	}
	if OrderCmp(SQL3VL, Int(1), Int(5), lt) != tvl.True {
		t.Error("1 < 5 should be true")
	}
	if Less(SQL3VL, Int(5), Int(1)) != tvl.False {
		t.Error("5 < 1 should be false")
	}
	if Less(SQL3VL, Str("a"), Int(1)) != tvl.False {
		t.Error("incomparable kinds should order false")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%a%b%c%", true},
		{"mississippi", "%iss%ipp%", true},
		{"mississippi", "%iss%issi%", true},     // backtracking finds both
		{"mississippi", "%issip%issip%", false}, // only one occurrence exists
		{"green almond ivory", "%almond%", true},
		{"green almond ivory", "%azure%", false},
		{"a%b", "a%b", true}, // literal traversal via wildcard
		// Regression (found by FuzzLike): '%' in the pattern is a
		// wildcard even when the subject contains literal '%'s.
		{"%%0", "%%", true},
		{"%", "%x", false},
		{"x%y", "%" + "%" + "%", true},
	}
	for _, c := range cases {
		got := Like(SQL3VL, Str(c.s), Str(c.pat))
		if got.IsTrue() != c.want {
			t.Errorf("LIKE(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	if Like(SQL3VL, Null(1), Str("%")) != tvl.Unknown {
		t.Error("SQL: NULL LIKE should be unknown")
	}
	if Like(Naive, Null(1), Str("%")) != tvl.False {
		t.Error("naive: NULL LIKE should be false")
	}
	if Like(SQL3VL, Int(5), Str("%")) != tvl.False {
		t.Error("LIKE on non-string should be false")
	}
}

func TestUnifies(t *testing.T) {
	if !Unifies(Null(1), Int(5)) || !Unifies(Int(5), Null(1)) || !Unifies(Null(1), Null(2)) {
		t.Error("nulls must unify with anything")
	}
	if !Unifies(Int(5), Int(5)) || Unifies(Int(5), Int(6)) {
		t.Error("constants unify iff equal")
	}
	if !Unifies(Int(5), Float(5)) {
		t.Error("numeric coercion in unification")
	}
}

func TestUnifyTuples(t *testing.T) {
	n1, n2, n3 := Null(1), Null(2), Null(3)
	cases := []struct {
		r, s []Value
		want bool
	}{
		{[]Value{Int(1)}, []Value{Int(1)}, true},
		{[]Value{Int(1)}, []Value{Int(2)}, false},
		{[]Value{n1}, []Value{Int(2)}, true},
		{[]Value{n1, n1}, []Value{Int(1), Int(2)}, false}, // ⊥1 cannot be 1 and 2
		{[]Value{n1, n1}, []Value{Int(1), Int(1)}, true},
		{[]Value{n1, n2}, []Value{Int(1), Int(2)}, true},
		{[]Value{n1, n1}, []Value{n2, Int(3)}, true},              // ⊥1=⊥2=3
		{[]Value{n1, Int(1)}, []Value{Int(2), n1}, false},         // ⊥1=2 and ⊥1=1 clash
		{[]Value{n1, n2, n1}, []Value{n2, Int(5), Int(6)}, false}, // chain forces 5=6
		{[]Value{n1, n2, n1}, []Value{n2, Int(5), Int(5)}, true},
		{[]Value{n1, n2}, []Value{n2, n1}, true},
		{[]Value{n3, n3}, []Value{n1, n2}, true}, // merges ⊥1 and ⊥2
		{nil, nil, true},
	}
	for _, c := range cases {
		if got := UnifyTuples(c.r, c.s); got != c.want {
			t.Errorf("UnifyTuples(%v, %v) = %v, want %v", c.r, c.s, got, c.want)
		}
	}
}

func TestUnifyTuplesPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on arity mismatch")
		}
	}()
	UnifyTuples([]Value{Int(1)}, []Value{Int(1), Int(2)})
}

// numericEdges are the numbers where an int/float equality can go
// wrong: ±0 (equal, with different IEEE bits), 2⁵³±1 (distinct ints
// that round to one float64), MaxInt64 (rounds to Float(2⁶³), which
// equals no int64), fractions, and the infinities.
var numericEdges = []Value{
	Int(0), Int(1), Int(-1), Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1),
	Int(math.MaxInt64), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(0.5), Float(-0.5),
	Float(1 << 53), Float(0x1p63), Float(-0x1p63), Float(math.Inf(1)), Float(math.Inf(-1)),
}

// randomValue draws from a small pool so that collisions are common.
func randomValue(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return Int(int64(rng.Intn(4)))
	case 1:
		return Str([]string{"a", "b"}[rng.Intn(2)])
	case 2:
		if rng.Intn(2) == 0 {
			return numericEdges[rng.Intn(len(numericEdges))]
		}
		// Signed, so -0.0 meets 0.0 and Int(0): equal under Compare,
		// different IEEE bits.
		return Float(float64(rng.Intn(3)) * float64(1-2*rng.Intn(2)))
	case 3:
		return Null(int64(rng.Intn(3)))
	default:
		return Date(int64(rng.Intn(3)))
	}
}

// TestUnifyTuplesProperties property-checks symmetry, reflexivity, and
// soundness: if the tuples unify, applying the unifying pattern of a
// common valuation must be consistent — approximated here by checking
// that unifiable tuples remain unifiable after consistently renaming
// marks, and that constant-only tuples unify iff equal.
func TestUnifyTuplesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Intn(4)
		r := make([]Value, k)
		s := make([]Value, k)
		for j := range r {
			r[j] = randomValue(rng)
			s[j] = randomValue(rng)
		}
		if UnifyTuples(r, s) != UnifyTuples(s, r) {
			t.Fatalf("unification not symmetric on %v, %v", r, s)
		}
		if !UnifyTuples(r, r) {
			t.Fatalf("unification not reflexive on %v", r)
		}
		// Renaming marks uniformly (id -> id+10) preserves unifiability.
		shift := func(vs []Value) []Value {
			out := make([]Value, len(vs))
			for j, v := range vs {
				if v.IsNull() {
					out[j] = Null(v.NullID() + 10)
				} else {
					out[j] = v
				}
			}
			return out
		}
		if UnifyTuples(r, s) != UnifyTuples(shift(r), shift(s)) {
			t.Fatalf("unification not invariant under mark renaming on %v, %v", r, s)
		}
	}
}

func TestKeys(t *testing.T) {
	// Numeric coercion: equal int and float values share a key.
	if RowKey([]Value{Int(2)}) != RowKey([]Value{Float(2)}) {
		t.Error("int and float keys differ for equal values")
	}
	// Distinct marks get distinct keys; same marks match.
	if RowKey([]Value{Null(1)}) == RowKey([]Value{Null(2)}) {
		t.Error("distinct marks share a key")
	}
	if RowKey([]Value{Null(1)}) != RowKey([]Value{Null(1)}) {
		t.Error("same mark, different keys")
	}
	// Strings with embedded separators don't collide.
	if RowKey([]Value{Str("a"), Str("b")}) == RowKey([]Value{Str("ab"), Str("")}) {
		t.Error(`("a","b") collides with ("ab","")`)
	}
	// Kinds are tagged: 1 (int) vs "1" vs true vs date(1).
	keys := map[string]Value{}
	for _, v := range []Value{Int(1), Str("1"), Bool(true), Date(1)} {
		k := RowKey([]Value{v})
		if prev, dup := keys[k]; dup {
			t.Errorf("%v and %v share a key", prev, v)
		}
		keys[k] = v
	}
}

// TestKeyAgreesWithConstEqual checks that RowKey equality coincides
// with constant equality for single constants: on every pair of
// numericEdges, then on random draws.
func TestKeyAgreesWithConstEqual(t *testing.T) {
	for _, a := range numericEdges {
		for _, b := range numericEdges {
			if sameKey := RowKey([]Value{a}) == RowKey([]Value{b}); sameKey != ConstEqual(a, b) {
				t.Errorf("%v %v and %v %v: same key %v, ConstEqual %v", a.Kind(), a, b.Kind(), b, sameKey, !sameKey)
			}
		}
	}
	cfg := &quick.Config{MaxCount: 2000, Values: func(vs []reflect.Value, rng *rand.Rand) {
		vs[0] = reflect.ValueOf(randomValue(rng))
		vs[1] = reflect.ValueOf(randomValue(rng))
	}}
	if err := quick.Check(func(a, b Value) bool {
		if a.IsNull() || b.IsNull() {
			return true
		}
		sameKey := RowKey([]Value{a}) == RowKey([]Value{b})
		return sameKey == ConstEqual(a, b)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestFoldKeyMatchesAppendKey property-checks that folding a row's
// values through FoldKey equals FNV-1a over the concatenated AppendKey
// encodings — the allocation-free fold must hash exactly the canonical
// bytes, or shard routing would disagree with key equality. The first
// row is every numeric edge, the rest random draws.
func TestFoldKeyMatchesAppendKey(t *testing.T) {
	const prime = 1099511628211
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		row := numericEdges
		if trial > 0 {
			row = make([]Value, rng.Intn(6))
			for i := range row {
				row[i] = randomValue(rng)
			}
		}
		h := KeySeed
		for _, v := range row {
			h = FoldKey(h, v)
		}
		want := KeySeed
		for _, b := range []byte(RowKey(row)) {
			want = (want ^ uint64(b)) * prime
		}
		if h != want {
			t.Fatalf("FoldKey state %#x != FNV over AppendKey %#x for %v", h, want, row)
		}
	}
}

func TestStrings(t *testing.T) {
	cases := map[string]Value{
		"⊥7":   Null(7),
		"42":   Int(42),
		"'hi'": Str("hi"),
		"true": Bool(true),
		"2.5":  Float(2.5),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String(%#v) = %q, want %q", v, v.String(), want)
		}
	}
	if Null(1).SQLString() != "NULL" {
		t.Error("SQLString of null")
	}
	if Int(3).SQLString() != "3" {
		t.Error("SQLString of int")
	}
	if KindInt.String() != "int" || KindNull.String() != "null" {
		t.Error("Kind.String")
	}
}
