package certain

import (
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/value"
)

// White-box tests for the nullability analysis backing the IS NULL
// simplification.

func nbSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "o", Attrs: []schema.Attribute{
		{Name: "id", Type: value.KindInt}, // key: not null
		{Name: "cust", Type: value.KindInt, Nullable: true},
	}, Key: []int{0}})
	s.MustAdd(&schema.Relation{Name: "l", Attrs: []schema.Attribute{
		{Name: "oid", Type: value.KindInt},
		{Name: "supp", Type: value.KindInt, Nullable: true},
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

func TestNonNullColsBaseAndOps(t *testing.T) {
	tr := &Translator{Sch: nbSchema(), Mode: ModeSQL}
	o := algebra.Base{Name: "o", Cols: 2}
	l := algebra.Base{Name: "l", Cols: 2}

	if got := tr.nonNullCols(o); !boolsEq(got, []bool{true, false}) {
		t.Errorf("base: %v", got)
	}
	if got := tr.nonNullCols(algebra.Product{L: o, R: l}); !boolsEq(got, []bool{true, false, true, false}) {
		t.Errorf("product: %v", got)
	}
	if got := tr.nonNullCols(algebra.Project{Child: o, Cols: []int{1, 0}}); !boolsEq(got, []bool{false, true}) {
		t.Errorf("project: %v", got)
	}
	// Union weakens to the conjunction; intersect strengthens to the
	// disjunction of guarantees.
	sel := algebra.Select{Child: o, Cond: algebra.NullTest{Operand: algebra.Col{Idx: 1}, Negated: true}}
	if got := tr.nonNullCols(sel); !boolsEq(got, []bool{true, true}) {
		t.Errorf("select IS NOT NULL: %v", got)
	}
	if got := tr.nonNullCols(algebra.Union{L: o, R: sel}); !boolsEq(got, []bool{true, false}) {
		t.Errorf("union: %v", got)
	}
	if got := tr.nonNullCols(algebra.Intersect{L: o, R: sel}); !boolsEq(got, []bool{true, true}) {
		t.Errorf("intersect: %v", got)
	}
}

func TestNonNullColsConditionStrengthening(t *testing.T) {
	o := algebra.Base{Name: "o", Cols: 2}
	l := algebra.Base{Name: "l", Cols: 2}
	eq := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}
	joined := algebra.Select{Child: algebra.Product{L: o, R: l}, Cond: eq}

	// SQL mode: a true equality forces both operands constant.
	sqlTr := &Translator{Sch: nbSchema(), Mode: ModeSQL}
	if got := sqlTr.nonNullCols(joined); !boolsEq(got, []bool{true, true, true, true}) {
		t.Errorf("SQL-mode equality strengthening: %v", got)
	}
	// Naive mode: ⊥ᵢ = ⊥ᵢ can be true, so equality does not strengthen…
	naiveTr := &Translator{Sch: nbSchema(), Mode: ModeNaive}
	if got := naiveTr.nonNullCols(joined); !boolsEq(got, []bool{true, false, true, false}) {
		t.Errorf("naive-mode equality must not strengthen: %v", got)
	}
	// …but order comparisons do (they are false on nulls either way).
	lt := algebra.Select{Child: algebra.Product{L: o, R: l},
		Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}}}
	if got := naiveTr.nonNullCols(lt); !boolsEq(got, []bool{true, true, true, true}) {
		t.Errorf("naive-mode order strengthening: %v", got)
	}
	// Semi-joins propagate strengthening from the condition; anti-joins
	// must not (no inner row was matched).
	cross := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 2}}
	semi := algebra.SemiJoin{L: o, R: l, Cond: cross}
	if got := sqlTr.nonNullCols(semi); !boolsEq(got, []bool{true, true}) {
		t.Errorf("semijoin strengthening: %v", got)
	}
	anti := algebra.SemiJoin{L: o, R: l, Cond: cross, Anti: true}
	if got := sqlTr.nonNullCols(anti); !boolsEq(got, []bool{true, false}) {
		t.Errorf("antijoin must not strengthen: %v", got)
	}
}

func TestSimplifyCondResolvesTests(t *testing.T) {
	nn := []bool{true, false}
	null0 := algebra.NullTest{Operand: algebra.Col{Idx: 0}}
	null1 := algebra.NullTest{Operand: algebra.Col{Idx: 1}}
	eq := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 1}}

	// null(#0) on a non-nullable column vanishes from disjunctions;
	// null(#1) survives.
	got := resolveNullTests(algebra.NewOr(eq, null0, null1), nn)
	if got.String() != "#0 = #1 OR null(#1)" {
		t.Errorf("simplified disjunction: %s", got)
	}
	// const(#0) vanishes from conjunctions.
	const0 := algebra.NullTest{Operand: algebra.Col{Idx: 0}, Negated: true}
	got2 := resolveNullTests(algebra.NewAnd(eq, const0), nn)
	if got2.String() != "#0 = #1" {
		t.Errorf("simplified conjunction: %s", got2)
	}
	// A disjunction reduced to a single null test on a non-null column
	// collapses to false.
	got3 := resolveNullTests(algebra.NewOr(null0), nn)
	if _, isFalse := got3.(algebra.FalseCond); !isFalse {
		t.Errorf("null test on key column = %s, want false", got3)
	}
}
