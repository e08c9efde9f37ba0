package analyze

import (
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/value"
)

// Hazard is one reason a query may return non-certain answers (or miss
// certain ones) under plain SQL evaluation. Plan-level hazards carry no
// source position (the algebra is positional); Pos is -1 there, and a
// byte offset in AST-level diagnostics.
type Hazard struct {
	Code string `json:"code"`
	Pos  int    `json:"offset"`
	Msg  string `json:"message"`
}

// PlanReport is the result of analyzing a compiled algebra plan.
type PlanReport struct {
	// Safe means plain SQL evaluation of the plan returns exactly the
	// certain answers on every database conforming to the schema — the
	// identity translation is correct and the θ*/θ** machinery can be
	// skipped entirely.
	Safe bool
	// Hazards lists everything that blocks the safe verdict.
	Hazards []Hazard
	// NonNull is the inferred per-output-column nullability (under
	// StrengthNaive, valid for both semantics).
	NonNull []bool
}

// Plan analyzes a compiled plan for certainty hazards.
//
// The verdict is a conservative proof that for every database D with
// nulls confined to schema-nullable attributes,
//
//	SQL-eval(Q, D) = naive-eval(Q, D) = cert(Q, D).
//
// The proof shape (spelled out in DESIGN.md): on a safe plan every
// condition atom has the same truth value under SQL 3VL, under naive
// evaluation, and under a generic valuation sending marks to pairwise
// distinct fresh constants; negation-shaped operators (anti-semijoin,
// EXCEPT, division, unification joins) are only admitted when their
// inputs are rigid (null-free), so no valuation can create or destroy
// a match. The differential-testing oracle re-verifies the claim on
// every fuzzed case (safe verdict ⇒ naive result == brute-force
// certain answers).
func Plan(e algebra.Expr, sch *schema.Schema) *PlanReport {
	a := &planAnalyzer{sch: sch}
	a.finiteKinds(e)
	a.expr(e)
	return &PlanReport{
		Safe:    len(a.hazards) == 0,
		Hazards: a.hazards,
		NonNull: NonNullCols(e, sch, StrengthNaive),
	}
}

type planAnalyzer struct {
	sch     *schema.Schema
	hazards []Hazard
}

func (a *planAnalyzer) hazard(code, format string, args ...any) {
	a.hazards = append(a.hazards, Hazard{Code: code, Pos: -1, Msg: fmt.Sprintf(format, args...)})
}

// finiteKinds flags nullable attributes of finite kinds (boolean)
// anywhere in the plan. A mark over a finite domain breaks the
// generic-valuation argument — there is no fresh constant to send it
// to — and certainty can then arise from a case split the naive result
// misses (e.g. σ[a=true](R) ∪ σ[a=false](R) over a nullable boolean a
// certainly contains every row of R, while naive evaluation keeps
// none of the marked ones).
func (a *planAnalyzer) finiteKinds(e algebra.Expr) {
	seen := map[string]bool{}
	algebra.Walk(e, func(sub algebra.Expr) {
		b, ok := sub.(algebra.Base)
		if !ok || seen[b.Name] {
			return
		}
		seen[b.Name] = true
		if a.sch == nil {
			return // reported as unknown-relation by expr
		}
		rel, found := a.sch.Relation(b.Name)
		if !found {
			return
		}
		for _, attr := range rel.Attrs {
			if attr.Nullable && (attr.Type == value.KindBool || attr.Type == value.KindNull) {
				a.hazard("finite-domain-null",
					"nullable %s column %s.%s ranges over a finite domain; certainty can arise from a case split that plain evaluation misses",
					attr.Type, rel.Name, attr.Name)
			}
		}
	})
}

func (a *planAnalyzer) expr(e algebra.Expr) {
	switch e := e.(type) {
	case algebra.Base:
		if a.sch == nil {
			a.hazard("unknown-relation", "no schema available for relation %s; nullability unknown", e.Name)
			return
		}
		if _, ok := a.sch.Relation(e.Name); !ok {
			a.hazard("unknown-relation", "relation %s not in schema; nullability unknown", e.Name)
		}
	case algebra.AdomPower:
		a.hazard("active-domain", "active-domain powers depend on the valuation of every null in the database")
	case algebra.Select:
		a.expr(e.Child)
		a.cond(e.Cond, NonNullCols(e.Child, a.sch, StrengthNaive))
	case algebra.Project:
		a.expr(e.Child)
	case algebra.Distinct:
		a.expr(e.Child)
	case algebra.Sort:
		a.expr(e.Child)
	case algebra.Product:
		a.expr(e.L)
		a.expr(e.R)
	case algebra.Union:
		a.expr(e.L)
		a.expr(e.R)
	case algebra.Intersect:
		a.expr(e.L)
		a.expr(e.R)
	case algebra.Diff:
		// L − R excludes by membership in R: a null on either side lets
		// a valuation create or destroy an exclusion.
		a.expr(e.L)
		if !NullFree(e.R, a.sch) {
			a.hazard("except-nullable",
				"EXCEPT excludes rows by matches in a subquery that can contain NULLs; a possible match is not a certain exclusion")
		}
		if !allTrue(NonNullCols(e.L, a.sch, StrengthNaive)) {
			a.hazard("except-nullable",
				"EXCEPT over left-side columns that can be NULL; a marked row's exclusion depends on how its nulls are interpreted")
		}
	case algebra.SemiJoin:
		if !e.Anti {
			a.expr(e.L)
			a.expr(e.R)
			nn := append(cloneBools(NonNullCols(e.L, a.sch, StrengthNaive)), NonNullCols(e.R, a.sch, StrengthNaive)...)
			a.cond(e.Cond, nn)
			return
		}
		// Anti-semijoin (NOT EXISTS / NOT IN): exclusion must be rigid.
		a.expr(e.L)
		if !NullFree(e.R, a.sch) {
			a.hazard("not-exists-nullable",
				"NOT EXISTS / NOT IN over a subquery that can contain NULLs; a possible match must block the outer row, so plain evaluation may keep non-certain answers")
		}
		nn := append(cloneBools(NonNullCols(e.L, a.sch, StrengthNaive)), trues(e.R.Arity())...)
		a.rigidCond(e.Cond, nn)
	case algebra.UnifySemi:
		if !NullFree(e.L, a.sch) || !NullFree(e.R, a.sch) {
			a.hazard("unify-nullable",
				"unification semijoin over inputs that can contain NULLs is valuation-dependent by construction")
		}
	case algebra.Division:
		a.expr(e.L)
		if !NullFree(e.R, a.sch) {
			a.hazard("division-nullable",
				"division by a divisor that can contain NULLs; which rows must be covered depends on the valuation")
		}
	case algebra.GroupBy:
		if !NullFree(e.Child, a.sch) {
			a.hazard("aggregate-nullable",
				"aggregation over input that can contain NULLs has no certain-answer semantics (paper §8)")
		}
	case algebra.Limit:
		if !NullFree(e.Child, a.sch) {
			a.hazard("limit-nullable", "LIMIT over input that can contain NULLs truncates a valuation-dependent row set")
		}
	default:
		a.hazard("unknown-operator", "operator %T is outside the analyzed fragment", e)
	}
}

// operand classes for atom analysis.
type opClass uint8

const (
	// classConst: the operand is a non-null constant on every database
	// row — a non-null column, a non-null literal, or a rigid COUNT
	// scalar. Its value does not change under valuations.
	classConst opClass = iota
	// classNullableCol: a column that may hold a mark (of an infinite
	// kind — finite kinds are flagged globally by finiteKinds).
	classNullableCol
	// classHazard: anything whose value can silently depend on the
	// valuation — NULL literals, non-rigid scalar subqueries.
	classHazard
)

func (a *planAnalyzer) classify(o algebra.Operand, nonNull []bool) (opClass, string) {
	switch o := o.(type) {
	case algebra.Col:
		if o.Idx >= 0 && o.Idx < len(nonNull) && nonNull[o.Idx] {
			return classConst, ""
		}
		return classNullableCol, ""
	case algebra.Lit:
		if o.Val.IsNull() {
			return classHazard, "a NULL literal never compares as certainly true or certainly false"
		}
		return classConst, ""
	case algebra.Scalar:
		// A scalar subquery is a constant only when nothing it reads can
		// be null *and* it cannot be NULL itself. Only COUNT is non-null
		// over empty input; MIN/MAX/SUM/AVG over an empty (even
		// null-free) table yield NULL, which the evaluator models as a
		// fresh mark.
		if !NullFree(o.Sub, a.sch) {
			return classHazard, "scalar subquery over data that can contain NULLs is not a rigid constant"
		}
		if o.Agg != algebra.AggCount {
			return classHazard, fmt.Sprintf("scalar %s can be NULL over an empty input even on null-free data", o.Agg)
		}
		return classConst, ""
	default:
		return classHazard, fmt.Sprintf("unknown operand %T", o)
	}
}

// cond checks every atom of c (in NNF, so connectives are monotone and
// atom-level exactness lifts to the whole condition).
func (a *planAnalyzer) cond(c algebra.Cond, nonNull []bool) {
	algebra.Atoms(algebra.NNF(c), func(atom algebra.Cond) {
		switch atom := atom.(type) {
		case algebra.Cmp:
			lc, lmsg := a.classify(atom.L, nonNull)
			rc, rmsg := a.classify(atom.R, nonNull)
			if lc == classHazard {
				a.hazard(hazardCodeFor(atom.L), "in %s: %s", atom, lmsg)
				return
			}
			if rc == classHazard {
				a.hazard(hazardCodeFor(atom.R), "in %s: %s", atom, rmsg)
				return
			}
			if atom.Op == algebra.EQ {
				// Equality tolerates one nullable side: a mark compares
				// false to any constant under SQL, naive and generic
				// valuations alike. Two nullable sides can share a mark,
				// which naive evaluation accepts and SQL rejects.
				if lc == classNullableCol && rc == classNullableCol {
					a.hazard("eq-nullable-pair",
						"%s compares two columns that can both be NULL; equal marks are certainly equal but never SQL-equal", atom)
				}
				return
			}
			// ≠, <, ≤, >, ≥ over a nullable operand: tautological
			// disjunctions (a < 3 OR a >= 3) make marked rows certain
			// while plain evaluation drops them.
			if lc == classNullableCol || rc == classNullableCol {
				a.hazard("cmp-nullable",
					"%s over a column that can be NULL; the comparison is neither certainly true nor certainly false on marked rows", atom)
			}
		case algebra.Like:
			lc, lmsg := a.classify(atom.Operand, nonNull)
			pc, pmsg := a.classify(atom.Pattern, nonNull)
			if lc == classHazard {
				a.hazard(hazardCodeFor(atom.Operand), "in %s: %s", atom, lmsg)
			} else if lc == classNullableCol {
				a.hazard("like-nullable", "%s over a column that can be NULL (every value matches '%%' under some valuation)", atom)
			}
			if pc == classHazard {
				a.hazard(hazardCodeFor(atom.Pattern), "in %s: %s", atom, pmsg)
			} else if pc == classNullableCol {
				a.hazard("like-nullable", "%s with a pattern that can be NULL", atom)
			}
		case algebra.NullTest:
			oc, msg := a.classify(atom.Operand, nonNull)
			switch oc {
			case classConst:
				// rigid constant — nothing to flag
			case classHazard:
				a.hazard(hazardCodeFor(atom.Operand), "in %s: %s", atom, msg)
			case classNullableCol:
				// IS NULL keeps marked rows that no valuation keeps;
				// IS NOT NULL drops marked rows that every valuation
				// keeps. Both polarities break exactness.
				a.hazard("null-test-nullable",
					"%s on a column that can be NULL; the test's outcome differs between the marked row and its valuations", atom)
			}
		default:
			a.hazard("unknown-atom", "condition %T is outside the analyzed fragment", atom)
		}
	})
}

// rigidCond requires every operand of every atom to be a rigid
// constant — the anti-semijoin criterion: with both sides of the
// exclusion rigid, no valuation can create or destroy a match.
func (a *planAnalyzer) rigidCond(c algebra.Cond, nonNull []bool) {
	algebra.Atoms(algebra.NNF(c), func(atom algebra.Cond) {
		algebra.AnyOperand(atom, func(o algebra.Operand) bool {
			oc, msg := a.classify(o, nonNull)
			switch oc {
			case classConst:
				// rigid constant — nothing to flag
			case classHazard:
				a.hazard(hazardCodeFor(o), "in %s: %s", atom, msg)
			case classNullableCol:
				a.hazard("not-exists-nullable",
					"anti-join condition %s references a column that can be NULL; whether the match blocks the outer row depends on the valuation", atom)
			}
			return false
		})
	})
}

func hazardCodeFor(o algebra.Operand) string {
	switch o := o.(type) {
	case algebra.Lit:
		if o.Val.IsNull() {
			return "null-literal"
		}
	case algebra.Scalar:
		return "scalar-subquery"
	case algebra.Col:
		// classify never labels a bare column classHazard (nullable
		// columns get classNullableCol); reaching here is a bug upstream.
	}
	return "unknown-operand"
}

func allTrue(b []bool) bool {
	for _, v := range b {
		if !v {
			return false
		}
	}
	return true
}

func trues(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}
