package certain

import (
	"certsql/internal/algebra"
	"certsql/internal/analyze"
)

// nonNullCols computes, per output column of e, whether the column
// provably never contains a null. The inference lives in
// internal/analyze (it also powers the safe-query fast path and
// certlint); the translator's condition mode picks the inference
// strength: under SQL 3VL every true comparison has constant operands,
// while under naive evaluation = can hold between equal marks and ≠
// between distinct marks, so only order comparisons strengthen.
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

func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}

// simplifyNullTests rewrites the expression, replacing null(A) by false
// and const(A) by true wherever column A is provably non-null, then
// collapsing the Boolean structure.
func (t *Translator) simplifyNullTests(e algebra.Expr) algebra.Expr {
	switch e := e.(type) {
	case algebra.Select:
		child := t.simplifyNullTests(e.Child)
		nn := t.nonNullCols(child)
		return algebra.Select{Child: child, Cond: simplifyCond(e.Cond, nn)}
	case algebra.SemiJoin:
		l := t.simplifyNullTests(e.L)
		r := t.simplifyNullTests(e.R)
		nn := append(cloneBools(t.nonNullCols(l)), t.nonNullCols(r)...)
		return algebra.SemiJoin{L: l, R: r, Cond: simplifyCond(e.Cond, nn), Anti: e.Anti}
	default:
		return algebra.MapChildren(e, t.simplifyNullTests)
	}
}

// simplifyCond resolves null tests against the non-null facts and
// simplifies the Boolean structure.
func simplifyCond(c algebra.Cond, nonNull []bool) algebra.Cond {
	switch c := c.(type) {
	case algebra.NullTest:
		if col, ok := c.Operand.(algebra.Col); ok && col.Idx >= 0 && col.Idx < len(nonNull) && nonNull[col.Idx] {
			if c.Negated {
				return algebra.TrueCond{} // const(A) on a non-nullable column
			}
			return algebra.FalseCond{} // null(A) on a non-nullable column
		}
		return c
	case algebra.And:
		parts := make([]algebra.Cond, len(c.Conds))
		for i, sub := range c.Conds {
			parts[i] = simplifyCond(sub, nonNull)
		}
		return algebra.NewAnd(parts...)
	case algebra.Or:
		parts := make([]algebra.Cond, len(c.Conds))
		for i, sub := range c.Conds {
			parts[i] = simplifyCond(sub, nonNull)
		}
		return algebra.NewOr(parts...)
	case algebra.Not:
		sub := simplifyCond(c.C, nonNull)
		return algebra.NNF(algebra.Not{C: sub})
	default:
		return c
	}
}
