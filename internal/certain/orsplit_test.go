package certain

import (
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/value"
)

// TestShouldSplit pins the split criteria on a subquery with outer
// columns #0–#1 and inner leaves r (#2–#3), s (#4–#5), k (#6–#7).
func TestShouldSplit(t *testing.T) {
	base := func(name string) algebra.Expr { return algebra.Base{Name: name, Cols: 2} }
	group := groupOf(algebra.ProductOf([]algebra.Expr{base("r"), base("s"), base("k")}), 2)
	eqOrNull := func(a, b int) algebra.Cond {
		return algebra.NewOr(
			algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: a}, R: algebra.Col{Idx: b}},
			algebra.NullTest{Operand: algebra.Col{Idx: a}})
	}
	onR := map[int]bool{0: true}
	for _, tc := range []struct {
		name       string
		c          algebra.Cond
		hasCrossEQ bool
		anchors    map[int]bool
		want       bool
	}{
		{"single leaf", algebra.NewOr(
			algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 4}, R: algebra.Lit{Val: value.Int(1)}},
			algebra.NullTest{Operand: algebra.Col{Idx: 4}}), true, onR, false},
		{"single leaf, no anchor", eqOrNull(4, 5), false, nil, false},
		{"anchor–inner", eqOrNull(3, 4), true, onR, true},
		{"inner–anchor", eqOrNull(6, 2), true, onR, true},
		{"inner–inner beside an anchor", eqOrNull(5, 6), true, onR, false},
		{"inner–inner, both anchors", eqOrNull(5, 6), true, map[int]bool{1: true, 2: true}, true},
		{"inner–inner, no anchor at all", eqOrNull(5, 6), false, nil, true},
		{"outer–inner with a cross equality", eqOrNull(0, 2), true, onR, false},
		{"outer–inner without a cross equality", eqOrNull(0, 2), false, onR, true},
		{"outer and two inner", algebra.NewOr(eqOrNull(0, 2), eqOrNull(3, 4)), true, map[int]bool{0: true, 1: true}, true},
		{"outer only", algebra.NewOr(
			algebra.NullTest{Operand: algebra.Col{Idx: 0}},
			algebra.NullTest{Operand: algebra.Col{Idx: 1}}), false, nil, false},
	} {
		if got := shouldSplit(tc.c, group, tc.hasCrossEQ, tc.anchors); got != tc.want {
			t.Errorf("%s: shouldSplit = %v, want %v", tc.name, got, tc.want)
		}
	}
}
