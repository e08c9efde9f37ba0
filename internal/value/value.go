// Package value defines the values stored in incomplete databases:
// typed constants and marked nulls.
//
// Following the model in Section 2 of Guagliardo & Libkin (PODS 2016),
// database entries come from Const ∪ Null. Constants are typed (integer,
// float, string, date, boolean); nulls are *marked* (labelled): each null
// carries an identifier ⊥ᵢ. Codd nulls — the usual model of SQL nulls —
// are the special case in which no identifier repeats.
//
// The package provides the two comparison semantics the paper studies:
//
//   - SQL 3VL semantics: any comparison involving a null is unknown.
//   - Naive (marked-null) semantics: ⊥ᵢ = ⊥ⱼ is true iff i = j, and
//     ⊥ᵢ = c is false for every constant c.
//
// It also implements unifiability (Definition 2 of the paper): two values
// unify when some valuation of nulls makes them equal.
package value

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind identifies the type of a Value.
type Kind uint8

// The kinds of values. KindNull is the zero value, so a zero Value is a
// null with identifier 0.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindDate
	KindBool
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single database entry: a typed constant or a marked null.
// Values are comparable with == (all fields are comparable), which makes
// them directly usable as map keys; note that == is *identity* of the
// representation, not SQL equality.
type Value struct {
	kind Kind
	i    int64 // int payload, date (days since 1970-01-01), bool (0/1), null id
	f    float64
	s    string
}

// Int returns an integer constant.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point constant.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string constant.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean constant.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Date returns a date constant, represented as days since 1970-01-01.
func Date(days int64) Value { return Value{kind: KindDate, i: days} }

// Null returns the marked null ⊥id.
func Null(id int64) Value { return Value{kind: KindNull, i: id} }

// Kind returns the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a null (of any mark).
func (v Value) IsNull() bool { return v.kind == KindNull }

// NullID returns the mark of a null value. It panics if v is not null.
func (v Value) NullID() int64 {
	if v.kind != KindNull {
		panic("value: NullID on non-null " + v.String())
	}
	return v.i
}

// AsInt returns the integer payload. It panics on a non-int value.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("value: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the value as a float64, coercing integers.
// It panics on non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic("value: AsFloat on " + v.kind.String())
	}
}

// AsString returns the string payload. It panics on a non-string value.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("value: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload. It panics on a non-bool value.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("value: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// AsDate returns the date payload in days since 1970-01-01.
// It panics on a non-date value.
func (v Value) AsDate() int64 {
	if v.kind != KindDate {
		panic("value: AsDate on " + v.kind.String())
	}
	return v.i
}

// ParseDate parses a date in "YYYY-MM-DD" form into a date Value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Value{}, err
	}
	return Date(t.Unix() / 86400), nil
}

// MustDate is like ParseDate but panics on error; for tests and fixtures.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the value for display: nulls as ⊥id, dates in ISO form,
// strings single-quoted.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥" + strconv.FormatInt(v.i, 10)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + v.s + "'"
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("value(%d)", uint8(v.kind))
	}
}

// SQLString renders the value as a SQL literal, with NULL for nulls.
func (v Value) SQLString() string {
	if v.kind == KindNull {
		return "NULL"
	}
	return v.String()
}

func numeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare orders two constants. It returns a negative number, zero, or a
// positive number as a sorts before, equal to, or after b, and ok=false
// when the kinds are incomparable (including when either is a null:
// constant comparison is undefined on nulls — use the Equal*/Less*
// functions in this package for null-aware semantics). Ints and floats
// compare by their exact mathematical values, so numeric equality is
// transitive: Int(2⁵³+1) equals no float, and Float(2⁵³) only Int(2⁵³).
func Compare(a, b Value) (cmp int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if numeric(a.kind) && numeric(b.kind) {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmpInt64(a.i, b.i), true
		case a.kind == KindFloat && b.kind == KindFloat:
			return cmpFloat(a.f, b.f), true
		case a.kind == KindInt:
			return cmpIntFloat(a.i, b.f), true
		default:
			return -cmpIntFloat(b.i, a.f), true
		}
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, true
		case a.s > b.s:
			return 1, true
		default:
			return 0, true
		}
	case KindDate, KindBool:
		return cmpInt64(a.i, b.i), true
	default:
		return 0, false
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat orders two floats; NaN compares equal to everything.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpIntFloat orders an int against a float exactly. Rounding i to
// float64 first would equate distinct ints beyond 2⁵³ with one float
// and so make equality intransitive; instead f's integer part, which
// is exact in int64 whenever f is within range, is compared with i,
// and f's fraction breaks a tie.
func cmpIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0 // NaN, as in cmpFloat
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmpInt64(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

// ConstEqual reports whether two constants are equal under Compare.
// Both arguments must be non-null; incomparable kinds are unequal.
func ConstEqual(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Unifies reports whether values a and b are unifiable at a single
// position: some valuation of nulls makes them equal. A null unifies
// with anything; two constants unify iff they are equal.
//
// For tuple-level unification with repeated marked nulls — where the
// same null must be mapped consistently across positions — use
// UnifyTuples.
func Unifies(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return true
	}
	return ConstEqual(a, b)
}

// UnifyTuples reports whether tuples r and s are unifiable (r ⇑ s,
// Definition 2 of the paper): there is a single valuation v of nulls with
// v(r) = v(s). Repeated marked nulls must map consistently: for example
// (⊥₁, ⊥₁) does not unify with (1, 2), although it unifies with (1, 1)
// and with (⊥₂, 3).
//
// The check runs a union-find over the null marks occurring in r and s,
// merging classes position by position and rejecting when a class would
// be bound to two distinct constants. It panics if the tuples have
// different lengths.
func UnifyTuples(r, s []Value) bool {
	if len(r) != len(s) {
		panic(fmt.Sprintf("value: UnifyTuples on tuples of different arity %d vs %d", len(r), len(s)))
	}
	u := unifier{parent: map[int64]int64{}, binding: map[int64]Value{}}
	for i := range r {
		if !u.merge(r[i], s[i]) {
			return false
		}
	}
	return true
}

// unifier is a union-find over null marks, each class optionally bound to
// a constant.
type unifier struct {
	parent  map[int64]int64
	binding map[int64]Value // root mark -> bound constant
}

func (u *unifier) find(id int64) int64 {
	p, ok := u.parent[id]
	if !ok {
		u.parent[id] = id
		return id
	}
	if p == id {
		return id
	}
	root := u.find(p)
	u.parent[id] = root
	return root
}

// merge enforces a = b under the current substitution.
func (u *unifier) merge(a, b Value) bool {
	switch {
	case a.kind == KindNull && b.kind == KindNull:
		ra, rb := u.find(a.i), u.find(b.i)
		if ra == rb {
			return true
		}
		ca, okA := u.binding[ra]
		cb, okB := u.binding[rb]
		if okA && okB && !ConstEqual(ca, cb) {
			return false
		}
		u.parent[ra] = rb
		if okA && !okB {
			u.binding[rb] = ca
		}
		delete(u.binding, ra)
		return true
	case a.kind == KindNull:
		return u.bind(a.i, b)
	case b.kind == KindNull:
		return u.bind(b.i, a)
	default:
		return ConstEqual(a, b)
	}
}

func (u *unifier) bind(id int64, c Value) bool {
	r := u.find(id)
	if prev, ok := u.binding[r]; ok {
		return ConstEqual(prev, c)
	}
	u.binding[r] = c
	return true
}
