package certain

import (
	"slices"

	"certsql/internal/algebra"
	"certsql/internal/analyze"
)

// nonNullCols computes, per output column of e, whether the column
// provably never contains a null. The inference lives in
// internal/analyze (it also feeds certlint and the planner); the
// translator's condition mode picks the inference strength: under SQL
// 3VL every true comparison has constant operands, while under naive
// evaluation = can hold between equal marks and ≠ between distinct
// marks, so only order comparisons strengthen.
//
// The analysis is what lets the translator drop the IS NULL disjuncts
// that the θ** translation would otherwise introduce on key columns,
// matching the appendix queries of the paper (Q⁺1 has no
// `l_orderkey IS NULL` disjunct because l_orderkey is part of a key).
func (t *Translator) nonNullCols(e algebra.Expr) []bool {
	st := analyze.StrengthNaive
	if t.Mode == ModeSQL {
		st = analyze.StrengthSQL
	}
	return analyze.NonNullCols(e, t.Sch, st)
}

// simplifyNullTests rewrites the expression, replacing null(A) by false
// and const(A) by true wherever column A is provably non-null, then
// collapsing the Boolean structure.
func (t *Translator) simplifyNullTests(e algebra.Expr) algebra.Expr {
	switch e := e.(type) {
	case algebra.Select:
		child := t.simplifyNullTests(e.Child)
		return algebra.Select{Child: child, Cond: resolveNullTests(e.Cond, t.nonNullCols(child))}
	case algebra.SemiJoin:
		l := t.simplifyNullTests(e.L)
		r := t.simplifyNullTests(e.R)
		nn := append(slices.Clone(t.nonNullCols(l)), t.nonNullCols(r)...)
		return algebra.SemiJoin{L: l, R: r, Cond: resolveNullTests(e.Cond, nn), Anti: e.Anti}
	default:
		return algebra.MapChildren(e, t.simplifyNullTests)
	}
}

// resolveNullTests resolves c's null tests against the non-null facts.
func resolveNullTests(c algebra.Cond, nonNull []bool) algebra.Cond {
	c, _ = algebra.ResolveNullTests(c, func(col int) bool { return col >= 0 && col < len(nonNull) && nonNull[col] })
	return c
}
