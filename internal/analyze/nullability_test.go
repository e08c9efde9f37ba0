package analyze

import (
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/value"
)

// testSchema has two relations with one key (NOT NULL) and one nullable
// column each, plus a fully null-free relation and one with a nullable
// boolean.
func testSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "o", Attrs: []schema.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "cust", Type: value.KindInt, Nullable: true},
	}, Key: []int{0}})
	s.MustAdd(&schema.Relation{Name: "l", Attrs: []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "supp", Type: value.KindInt, Nullable: true},
	}, Key: []int{0}})
	s.MustAdd(&schema.Relation{Name: "solid", Attrs: []schema.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindString},
	}, Key: []int{0}})
	s.MustAdd(&schema.Relation{Name: "flags", Attrs: []schema.Attribute{
		{Name: "id", Type: value.KindInt},
		{Name: "ok", Type: value.KindBool, Nullable: true},
		{Name: "seen", Type: value.KindBool},
	}, Key: []int{0}})
	return s
}

func boolsEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNonNullColsOperators(t *testing.T) {
	sch := testSchema()
	o := algebra.Base{Name: "o", Cols: 2}
	l := algebra.Base{Name: "l", Cols: 2}
	notNull1 := algebra.NullTest{Operand: algebra.Col{Idx: 1}, Negated: true}
	sel := algebra.Select{Child: o, Cond: notNull1}

	cases := []struct {
		name string
		e    algebra.Expr
		st   Strength
		want []bool
	}{
		{"base", o, StrengthNaive, []bool{true, false}},
		{"product", algebra.Product{L: o, R: l}, StrengthNaive, []bool{true, false, true, false}},
		{"project", algebra.Project{Child: o, Cols: []int{1, 0}}, StrengthNaive, []bool{false, true}},
		{"select IS NOT NULL", sel, StrengthNaive, []bool{true, true}},
		{"union weakens", algebra.Union{L: o, R: sel}, StrengthNaive, []bool{true, false}},
		{"intersect strengthens", algebra.Intersect{L: o, R: sel}, StrengthNaive, []bool{true, true}},
		{"diff keeps left", algebra.Diff{L: sel, R: o}, StrengthNaive, []bool{true, true}},
		{"semijoin strengthens", algebra.SemiJoin{L: o, R: l,
			Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 2}}},
			StrengthNaive, []bool{true, true}},
		{"antijoin must not strengthen", algebra.SemiJoin{L: o, R: l, Anti: true,
			Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 2}}},
			StrengthNaive, []bool{true, false}},
		{"division", algebra.Division{L: algebra.Product{L: o, R: l}, R: l}, StrengthNaive, []bool{true, false}},
		{"sort passes through", algebra.Sort{Child: sel}, StrengthNaive, []bool{true, true}},
		{"limit passes through", algebra.Limit{Child: sel, N: 3}, StrengthNaive, []bool{true, true}},
		// Equality strengthens only under SQL 3VL: ⊥ᵢ = ⊥ᵢ is
		// naive-true, so naive mode must keep the column nullable.
		{"eq strengthens under SQL", algebra.Select{Child: algebra.Product{L: o, R: l},
			Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}},
			StrengthSQL, []bool{true, true, true, true}},
		{"eq must not strengthen naively", algebra.Select{Child: algebra.Product{L: o, R: l},
			Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}},
			StrengthNaive, []bool{true, false, true, false}},
		{"order cmp strengthens naively", algebra.Select{Child: algebra.Product{L: o, R: l},
			Cond: algebra.Cmp{Op: algebra.GE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}},
			StrengthNaive, []bool{true, true, true, true}},
		{"like strengthens its operand", algebra.Select{Child: o,
			Cond: algebra.Like{Operand: algebra.Col{Idx: 1}, Pattern: algebra.Lit{Val: value.Str("x%")}}},
			StrengthNaive, []bool{true, true}},
	}
	for _, tc := range cases {
		if got := NonNullCols(tc.e, sch, tc.st); !boolsEq(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestNonNullColsGroupBy(t *testing.T) {
	sch := testSchema()
	o := algebra.Base{Name: "o", Cols: 2}

	// Global aggregates (no keys): COUNT is never NULL, but MIN/SUM/AVG
	// over a possibly-empty input yield the empty-group NULL even when
	// the argument column is NOT NULL.
	global := algebra.GroupBy{Child: o, Aggs: []algebra.AggSpec{
		{Func: algebra.AggCount, Col: -1},
		{Func: algebra.AggMin, Col: 0},
		{Func: algebra.AggSum, Col: 0},
		{Func: algebra.AggAvg, Col: 1},
	}}
	if got := NonNullCols(global, sch, StrengthNaive); !boolsEq(got, []bool{true, false, false, false}) {
		t.Errorf("global aggregates: %v", got)
	}

	// Keyed aggregates: groups are non-empty by construction, so an
	// aggregate over a NOT NULL argument is NOT NULL; over a nullable
	// argument it stays nullable. Keys inherit the child's facts.
	keyed := algebra.GroupBy{Child: o, Keys: []int{0}, Aggs: []algebra.AggSpec{
		{Func: algebra.AggMax, Col: 0},
		{Func: algebra.AggMax, Col: 1},
		{Func: algebra.AggCount, Col: -1},
	}}
	if got := NonNullCols(keyed, sch, StrengthNaive); !boolsEq(got, []bool{true, true, false, true}) {
		t.Errorf("keyed aggregates: %v", got)
	}
	nullableKey := algebra.GroupBy{Child: o, Keys: []int{1}, Aggs: []algebra.AggSpec{
		{Func: algebra.AggMin, Col: 0},
	}}
	if got := NonNullCols(nullableKey, sch, StrengthNaive); !boolsEq(got, []bool{false, true}) {
		t.Errorf("nullable grouping key: %v", got)
	}
}

func TestNonNullColsNoSchema(t *testing.T) {
	o := algebra.Base{Name: "o", Cols: 2}
	if got := NonNullCols(o, nil, StrengthNaive); !boolsEq(got, []bool{false, false}) {
		t.Errorf("nil schema must assume nullable: %v", got)
	}
	unknown := algebra.Base{Name: "nosuch", Cols: 3}
	if got := NonNullCols(unknown, testSchema(), StrengthNaive); !boolsEq(got, []bool{false, false, false}) {
		t.Errorf("unknown relation must assume nullable: %v", got)
	}
}

func TestNullFree(t *testing.T) {
	sch := testSchema()
	solid := algebra.Base{Name: "solid", Cols: 2}
	o := algebra.Base{Name: "o", Cols: 2}

	if !SchemaNullFree(solid, sch) {
		t.Error("solid is null-free")
	}
	if SchemaNullFree(o, sch) {
		t.Error("o has a nullable column")
	}
	if SchemaNullFree(algebra.Product{L: solid, R: o}, sch) {
		t.Error("product inherits o's nullability")
	}
	if SchemaNullFree(solid, nil) {
		t.Error("nil schema counts as nullable")
	}
	if SchemaNullFree(algebra.Base{Name: "nosuch", Cols: 1}, sch) {
		t.Error("unknown relation counts as nullable")
	}
	// Walk descends into scalar subqueries inside conditions.
	scalar := algebra.Scalar{Sub: o, Agg: algebra.AggCount, Col: -1}
	sel := algebra.Select{Child: solid, Cond: algebra.Cmp{
		Op: algebra.GT, L: algebra.Col{Idx: 0}, R: scalar}}
	if SchemaNullFree(sel, sch) {
		t.Error("scalar subquery over o makes the expression non-null-free")
	}
}
