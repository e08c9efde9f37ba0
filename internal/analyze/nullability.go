// Package analyze implements the static analyses over the schema's
// nullability: per-column nullability inference over algebra plans
// (NonNullCols, which the translator and the planner use to resolve
// null tests), a plan-level safety verdict ("on this query, plain
// evaluation already computes exactly the certain answers"), and an
// AST-level certainty-hazard detector with source positions. The two
// verdicts feed certlint; difftest checks the plan-level one against
// brute force.
//
// Every fact rests on the schema's NOT NULL declarations, which the
// database enforces on every write. The analyses are conservative: a
// "safe" verdict is a proof sketch that SQL evaluation, naive
// evaluation and the certain answers all coincide (see DESIGN.md,
// "Static analysis"), while a hazard is only a warning that the proof
// does not go through.
package analyze

import (
	"certsql/internal/algebra"
	"certsql/internal/schema"
)

// Strength selects how aggressively selection conditions strengthen
// nullability facts. The difference mirrors certain.CondMode: under SQL
// 3VL a true comparison has constant operands, but under naive
// evaluation A = B also holds between equal marks and A ≠ B between
// distinct marks, so only order comparisons (false on nulls either
// way) may strengthen.
type Strength uint8

// Strength values.
const (
	// StrengthNaive keeps only inferences valid under naive evaluation
	// (and hence under both semantics); the safety verdict uses this.
	StrengthNaive Strength = iota
	// StrengthSQL additionally uses 3VL facts: a surviving row
	// satisfied every conjunct with non-null operands.
	StrengthSQL
)

// NonNullCols computes, per output column of e, whether the column
// provably never contains a null. The base facts come from schema
// nullability; they propagate through every operator and are
// strengthened by selection conditions whose truth forces an operand
// to be non-null.
//
// This is what lets the certain-answer translator drop the IS NULL
// disjuncts that the θ** translation would otherwise introduce on key
// columns (the appendix Q⁺1 has no `l_orderkey IS NULL` disjunct
// because l_orderkey is part of a key), and what the safety verdict
// consults to decide that negation over NOT NULL attributes is
// harmless.
func NonNullCols(e algebra.Expr, sch *schema.Schema, st Strength) []bool {
	switch e := e.(type) {
	case algebra.Base:
		if sch == nil {
			return make([]bool, e.Cols)
		}
		rel, ok := sch.Relation(e.Name)
		if !ok {
			return make([]bool, e.Cols)
		}
		out := make([]bool, rel.Arity())
		for i, a := range rel.Attrs {
			out[i] = !a.Nullable
		}
		return out
	case algebra.AdomPower:
		return make([]bool, e.K)
	case algebra.Select:
		out := cloneBools(NonNullCols(e.Child, sch, st))
		strengthen(out, 0, e.Cond, st)
		return out
	case algebra.Project:
		child := NonNullCols(e.Child, sch, st)
		out := make([]bool, len(e.Cols))
		for i, c := range e.Cols {
			out[i] = child[c]
		}
		return out
	case algebra.Product:
		return append(cloneBools(NonNullCols(e.L, sch, st)), NonNullCols(e.R, sch, st)...)
	case algebra.Union:
		l, r := NonNullCols(e.L, sch, st), NonNullCols(e.R, sch, st)
		out := make([]bool, len(l))
		for i := range out {
			out[i] = l[i] && r[i]
		}
		return out
	case algebra.Intersect:
		// Rows appear identically in both inputs, so either guarantee
		// applies.
		l, r := NonNullCols(e.L, sch, st), NonNullCols(e.R, sch, st)
		out := make([]bool, len(l))
		for i := range out {
			out[i] = l[i] || r[i]
		}
		return out
	case algebra.Diff:
		return NonNullCols(e.L, sch, st)
	case algebra.SemiJoin:
		out := cloneBools(NonNullCols(e.L, sch, st))
		if !e.Anti {
			// Surviving rows satisfied the condition with some inner
			// row; conjuncts over L columns strengthen them.
			strengthen(out, 0, e.Cond, st)
		}
		return out
	case algebra.UnifySemi:
		return NonNullCols(e.L, sch, st)
	case algebra.Distinct:
		return NonNullCols(e.Child, sch, st)
	case algebra.Division:
		return NonNullCols(e.L, sch, st)[:e.Arity()]
	case algebra.GroupBy:
		child := NonNullCols(e.Child, sch, st)
		out := make([]bool, 0, len(e.Keys)+len(e.Aggs))
		for _, k := range e.Keys {
			out = append(out, child[k])
		}
		for _, a := range e.Aggs {
			out = append(out, aggNonNull(a, e.Keys, child))
		}
		return out
	case algebra.Sort:
		return NonNullCols(e.Child, sch, st)
	case algebra.Limit:
		return NonNullCols(e.Child, sch, st)
	default:
		return make([]bool, e.Arity())
	}
}

// aggNonNull reports whether one aggregate output column is provably
// non-null. COUNT never is null. Every other aggregate is NULL over
// empty input, and a *global* aggregate (no grouping keys) produces
// its one row even when the input is empty — the empty-group NULL the
// evaluator models with a fresh mark — so MIN/MAX/SUM/AVG are non-null
// only under grouping (groups are non-empty by construction) over a
// non-null argument.
func aggNonNull(a algebra.AggSpec, keys []int, childNonNull []bool) bool {
	if a.Func == algebra.AggCount {
		return true
	}
	if len(keys) == 0 {
		return false
	}
	return a.Col >= 0 && a.Col < len(childNonNull) && childNonNull[a.Col]
}

func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}

// strengthen marks columns of nonNull (offset by off) that must be
// non-null whenever cond is true. Only top-level conjunct atoms are
// considered.
func strengthen(nonNull []bool, off int, cond algebra.Cond, st Strength) {
	for _, c := range algebra.Conjuncts(algebra.NNF(cond)) {
		// vetcert:ignore famexhaustive: only atoms strengthen nullability;
		// nested connectives (Or under a conjunct) and True/False add
		// nothing.
		switch c := c.(type) {
		case algebra.Cmp:
			if st == StrengthSQL || (c.Op != algebra.EQ && c.Op != algebra.NE) {
				markNonNull(nonNull, off, c.L)
				markNonNull(nonNull, off, c.R)
			}
		case algebra.Like:
			if !c.Negated {
				markNonNull(nonNull, off, c.Operand)
			}
		case algebra.NullTest:
			if c.Negated {
				markNonNull(nonNull, off, c.Operand)
			}
		}
	}
}

func markNonNull(nonNull []bool, off int, o algebra.Operand) {
	if col, ok := o.(algebra.Col); ok {
		i := col.Idx - off
		if i >= 0 && i < len(nonNull) {
			nonNull[i] = true
		}
	}
}

// SchemaNullFree reports whether no base relation reachable from e has a
// nullable attribute (unknown relations and a nil schema count as
// nullable). A null-free expression is rigid: no valuation of the
// database can change what it computes, so every operator over it is
// trivially exact.
func SchemaNullFree(e algebra.Expr, sch *schema.Schema) bool {
	ok := true
	algebra.Walk(e, func(sub algebra.Expr) {
		b, isBase := sub.(algebra.Base)
		if !isBase {
			return
		}
		if sch == nil {
			ok = false
			return
		}
		rel, found := sch.Relation(b.Name)
		if !found {
			ok = false
			return
		}
		for _, a := range rel.Attrs {
			if a.Nullable {
				ok = false
			}
		}
	})
	return ok
}
