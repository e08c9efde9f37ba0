package certain

import (
	"errors"
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/schema"
)

// ErrUntranslatable is the sentinel wrapped by every CheckTranslatable
// refusal, so callers can distinguish "this query has no certain-answer
// translation" from operational failures with errors.Is.
var ErrUntranslatable = errors.New("certain: no certain-answer translation")

func untranslatable(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUntranslatable, fmt.Sprintf(format, args...))
}

// CheckTranslatable reports whether the certain-answer translation is
// defined for the query. Grouping/aggregation, ORDER BY and LIMIT are
// engine features of the standard mode only: certain answers under
// aggregation (and under bag semantics generally) are open problems the
// paper's Section 8 defers to future work, so rather than returning
// subtly wrong "certain" results the translation refuses them.
//
// Scalar aggregate subqueries inside comparisons are fine — the paper
// treats them as black-box constants (Section 7) and so does the
// translation.
func CheckTranslatable(e algebra.Expr) error {
	var err error
	algebra.Walk(e, func(sub algebra.Expr) {
		if err != nil {
			return
		}
		// astlint:partial — a deny-list: every operator not named here
		// is translatable.
		switch sub.(type) {
		case algebra.GroupBy:
			err = untranslatable("aggregation has no certain-answer semantics yet (see paper §8); use standard evaluation")
		case algebra.Sort:
			err = untranslatable("ORDER BY is not meaningful for certain answers (they are a set); order the result client-side")
		case algebra.Limit:
			err = untranslatable("LIMIT under certain-answer evaluation would be ambiguous; apply it client-side")
		case algebra.Division:
			if d := sub.(algebra.Division); err == nil {
				if _, ok := d.R.(algebra.Base); !ok {
					err = untranslatable("division is only translatable when the divisor is a database relation (Fact 1)")
				}
			}
		}
	})
	return err
}

// RigidScalars reports whether every scalar aggregate subquery occurring
// in e is rigid: guaranteed to evaluate to the same value on every
// valuation of the database. The translation treats scalar subqueries as
// black-box constants (Section 7 of the paper, mirrored in the appendix
// query Q⁺2), which is exact only for rigid ones — over
// valuation-dependent input the translated query keeps the paper's
// pragmatic semantics but loses the certain-answer guarantee. The
// differential-testing oracle uses this to know when the brute-force
// soundness invariants apply.
//
// The static criterion is conservative: a scalar is considered rigid
// when no base relation reachable from its subquery (including through
// nested scalar subqueries) has a nullable attribute, so no valuation
// can change what the subquery computes.
func RigidScalars(e algebra.Expr, sch *schema.Schema) bool {
	for _, c := range algebra.Conds(e) {
		if algebra.AnyOperand(c, func(o algebra.Operand) bool {
			s, ok := o.(algebra.Scalar)
			return ok && !nullFreeExpr(s.Sub, sch)
		}) {
			return false
		}
	}
	return true
}

// nullFreeExpr reports whether no base relation reachable from e has a
// nullable attribute (unknown relations and a nil schema count as
// nullable). It is analyze.NullFree, shared with the safe-query fast
// path; algebra.Walk descends into scalar subqueries, so nested
// scalars over nullable data are caught too.
func nullFreeExpr(e algebra.Expr, sch *schema.Schema) bool {
	return analyze.NullFree(e, sch)
}
