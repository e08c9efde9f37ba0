package plan

import (
	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/schema"
	"certsql/internal/stats"
)

// optimizer is one planning pass's state: the catalog, the statistics
// snapshot that prices the EXPLAIN tree (nil while rewriting), the
// rules fired so far and, while describing a plan the view cache serves,
// the view keys drained so far.
type optimizer struct {
	sch     *schema.Schema
	st      *stats.DBStats
	fired   map[RuleKind]bool
	drained map[string]bool
}

// rewrite rebuilds e bottom-up, applying every rewrite rule whose
// byte-identity gates hold. Scalar subqueries inside conditions are
// left untouched.
func (o *optimizer) rewrite(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case algebra.Select:
		return o.rewriteSelect(algebra.Select{Child: o.rewrite(n.Child), Cond: n.Cond})
	case algebra.Project:
		child := o.rewrite(n.Child)
		if inner, ok := child.(algebra.Project); ok {
			composed := make([]int, len(n.Cols))
			for i, c := range n.Cols {
				composed[i] = inner.Cols[c]
			}
			o.fired[RuleProjectCollapse] = true
			return algebra.Project{Child: inner.Child, Cols: composed}
		}
		return algebra.Project{Child: child, Cols: n.Cols}
	case algebra.SemiJoin:
		return o.rewriteSemi(algebra.SemiJoin{L: o.rewrite(n.L), R: o.rewrite(n.R), Cond: n.Cond, Anti: n.Anti})
	default:
		return algebra.MapChildren(e, o.rewrite)
	}
}

// isProductChain reports whether e is a chain of Cartesian products —
// the SELECT-FROM-WHERE block shape the runtime's greedy equi-join
// planner owns. The planner never alters a selection directly over a
// product chain and never creates a new one: the greedy planner's join
// (and hence row) order depends on the condition's conjunct structure,
// which byte-identity does not allow us to perturb.
func isProductChain(e algebra.Expr) bool {
	_, ok := e.(algebra.Product)
	return ok
}

// rewriteSelect applies merge-select, null-test elimination and
// selection pushdown to a Select whose child is already rewritten.
func (o *optimizer) rewriteSelect(s algebra.Select) algebra.Expr {
	if algebra.HasScalar(s.Cond) || isProductChain(s.Child) {
		return s
	}
	// Null-test elimination against the child's provable nullability —
	// except over a stored relation whose null lists serve the selection
	// (algebra.NullScans): it reads only the rows that can pass, none
	// when the tested columns are null-free.
	cond := s.Cond
	if _, ok := s.Child.(algebra.Base); ok && len(algebra.NullScans(cond)) > 0 {
		return s
	}
	if sc, changed := algebra.ResolveNullTests(algebra.NNF(cond), o.nullFreeIn(s.Child)); changed {
		o.fired[RuleNullTestElim] = true
		cond = sc
	}
	if _, ok := cond.(algebra.TrueCond); ok {
		return s.Child // filter proved vacuous
	}
	// vetcert:ignore famexhaustive: only the operators a selection
	// commutes with; anything else keeps the filter where it is.
	switch child := s.Child.(type) {
	case algebra.Select:
		// merge-select: σc1(σc2(X)) → σ[c2∧c1](X).
		if !algebra.HasScalar(child.Cond) && !isProductChain(child.Child) {
			o.fired[RuleMergeSelect] = true
			return o.rewriteSelect(algebra.Select{Child: child.Child, Cond: algebra.NewAnd(child.Cond, cond)})
		}
	case algebra.Project:
		// σc(π(X)) → π(σc'(X)) with c's columns remapped through π.
		if !isProductChain(child.Child) {
			o.fired[RulePushdownSelect] = true
			remapped := algebra.MapCols(cond, func(i int) int { return child.Cols[i] })
			return algebra.Project{Child: o.rewriteSelect(algebra.Select{Child: child.Child, Cond: remapped}), Cols: child.Cols}
		}
	case algebra.Distinct:
		// σc(δ(X)) → δ(σc(X)): filtering commutes with first-
		// occurrence deduplication because the predicate depends only
		// on the row's values.
		if !isProductChain(child.Child) {
			o.fired[RulePushdownSelect] = true
			return algebra.Distinct{Child: o.rewriteSelect(algebra.Select{Child: child.Child, Cond: cond})}
		}
	case algebra.Union:
		if !isProductChain(child.L) && !isProductChain(child.R) {
			o.fired[RulePushdownSelect] = true
			return algebra.Union{
				L: o.rewriteSelect(algebra.Select{Child: child.L, Cond: cond}),
				R: o.rewriteSelect(algebra.Select{Child: child.R, Cond: cond}),
			}
		}
	case algebra.Diff:
		// Output rows come from L, so the filter applies to L alone.
		if !isProductChain(child.L) {
			o.fired[RulePushdownSelect] = true
			return algebra.Diff{L: o.rewriteSelect(algebra.Select{Child: child.L, Cond: cond}), R: child.R}
		}
	case algebra.Intersect:
		if !isProductChain(child.L) {
			o.fired[RulePushdownSelect] = true
			return algebra.Intersect{L: o.rewriteSelect(algebra.Select{Child: child.L, Cond: cond}), R: child.R}
		}
	case algebra.SemiJoin:
		// σc(L ⋉θ R) → σc(L) ⋉θ R: the semijoin's output is a subset
		// of L, and θ is untouched, so strategy and short-circuit
		// behaviour are unchanged.
		if !isProductChain(child.L) {
			o.fired[RulePushdownSelect] = true
			return o.rewriteSemi(algebra.SemiJoin{
				L: o.rewriteSelect(algebra.Select{Child: child.L, Cond: cond}),
				R: child.R, Cond: child.Cond, Anti: child.Anti,
			})
		}
	case algebra.UnifySemi:
		if !isProductChain(child.L) {
			o.fired[RulePushdownSelect] = true
			return algebra.UnifySemi{
				L:    o.rewriteSelect(algebra.Select{Child: child.L, Cond: cond}),
				R:    child.R,
				Anti: child.Anti,
			}
		}
	}
	return algebra.Select{Child: s.Child, Cond: cond}
}

// rewriteSemi simplifies a semijoin's condition and, for antijoins,
// splits the right side on IS NULL disjuncts. Children are already
// rewritten.
func (o *optimizer) rewriteSemi(n algebra.SemiJoin) algebra.Expr {
	if algebra.HasScalar(n.Cond) {
		return n
	}
	nL := n.L.Arity()
	cond := algebra.NNF(n.Cond)
	free := o.nullFreeJoin(n.L, n.R)
	if sc, changed := algebra.ResolveNullTests(cond, free); changed {
		// Losing every left-column reference flips the operator onto
		// the uncorrelated short-circuit path, which may skip
		// evaluating one side entirely — illegal if a skipped subtree
		// would have minted marked nulls that appear in the output.
		if algebra.UsesColBelow(cond, nL) && !algebra.UsesColBelow(sc, nL) &&
			(hasMinters(n.L) || hasMinters(n.R)) {
			// keep the original condition
		} else {
			o.fired[RuleNullTestElim] = true
			n.Cond = sc
		}
	}
	var out algebra.Expr = n
	for range [4]struct{}{} {
		sj, ok := out.(algebra.SemiJoin)
		if !ok {
			break
		}
		split, ok := o.antiSplit(sj)
		if !ok {
			break
		}
		o.fired[RuleAntiSplit] = true
		out = split
	}
	return out
}

// antiSplit rewrites L ▷[(θ∨ρ)∧rest] R, where ρ is a non-empty set of
// IS NULL disjuncts on right-side columns, into two stacked antijoins
// over complementary selections of R:
//
//	(L ▷[rest] σρ'(R)) ▷[(θ∨False)∧rest] σ¬ρ'(R)
//
// (or the same pair in the other order — see the minter note below).
// ρ is two-valued on every R row under both semantics, so the two
// selections partition R exactly; on the ρ-part the disjunction is
// constantly true and on the ¬ρ-part it reduces to θ. A left row
// survives the original antijoin iff it survives both split antijoins,
// each split antijoin keeps a subset of its left input in input order,
// and set intersection does not care which filter runs first — so
// results are byte-identical either way. When θ is empty the θ-part is
// vacuous and dropped; when rest is empty the ρ-part is uncorrelated
// and short-circuits.
//
// The split is kept only when the cost model, on the statistics-free
// estimates the rewrite uses, prices it below the original antijoin. It
// wins when the unsplit condition has nothing the runtime can index (θ
// is not an equality, say `LIKE … OR IS NULL`, so the unsplit antijoin
// nested-loops) or when the ρ-part short-circuits the whole antijoin
// away, which at the default null rate it is expected to do whenever
// rest is empty; it loses when `rest` already carries extractable hash
// keys — there splitting only adds a second pass over R.
func (o *optimizer) antiSplit(sj algebra.SemiJoin) (algebra.Expr, bool) {
	if !sj.Anti || algebra.HasScalar(sj.Cond) {
		return nil, false
	}
	nL := sj.L.Arity()
	conjs := algebra.Conjuncts(algebra.NNF(sj.Cond))
	for ci, c := range conjs {
		or, ok := c.(algebra.Or)
		if !ok {
			continue
		}
		var rho, rhoNeg, theta []algebra.Cond
		for _, d := range or.Conds {
			if nt, ok := d.(algebra.NullTest); ok && !nt.Negated {
				if col, ok := nt.Operand.(algebra.Col); ok && col.Idx >= nL {
					local := algebra.Col{Idx: col.Idx - nL}
					rho = append(rho, algebra.NullTest{Operand: local})
					rhoNeg = append(rhoNeg, algebra.NullTest{Operand: local, Negated: true})
					continue
				}
			}
			theta = append(theta, d)
		}
		if len(rho) == 0 {
			continue
		}
		// The split evaluates R's two parts separately, so R must not
		// mint marked nulls: minting draws from one sequential counter
		// and a second evaluation would shift every later identity.
		if hasMinters(sj.R) {
			return nil, false
		}
		rest := make([]algebra.Cond, 0, len(conjs)-1)
		rest = append(rest, conjs[:ci]...)
		rest = append(rest, conjs[ci+1:]...)
		var thetaCond algebra.Cond
		if len(theta) > 0 {
			thetaCond = algebra.NewAnd(append([]algebra.Cond{algebra.NewOr(theta...)}, rest...)...)
		}
		// A minting L must be evaluated exactly once in both plans. With
		// θ empty both conditions lose their left references together, so
		// original and split short-circuit (and skip L) under the same
		// criterion: a ρ∧rest row exists in R. With θ present we put the
		// θ-antijoin innermost; if it is correlated it always evaluates
		// L, like the original. An uncorrelated θ over a minting L could
		// skip it where the original would not — refuse.
		if hasMinters(sj.L) && thetaCond != nil && !algebra.UsesColBelow(thetaCond, nL) {
			return nil, false
		}
		var split algebra.Expr
		if thetaCond == nil {
			split = algebra.SemiJoin{
				L:    sj.L,
				R:    algebra.Select{Child: sj.R, Cond: algebra.NewOr(rho...)},
				Cond: algebra.NewAnd(rest...),
				Anti: true,
			}
		} else if hasMinters(sj.L) {
			// θ-part innermost: the correlated antijoin pins L's single
			// evaluation; the uncorrelated ρ-part then filters its rows.
			split = algebra.SemiJoin{
				L: algebra.SemiJoin{
					L:    sj.L,
					R:    algebra.Select{Child: sj.R, Cond: algebra.NewAnd(rhoNeg...)},
					Cond: thetaCond,
					Anti: true,
				},
				R:    algebra.Select{Child: sj.R, Cond: algebra.NewOr(rho...)},
				Cond: algebra.NewAnd(rest...),
				Anti: true,
			}
		} else {
			// ρ-part innermost: when any ρ∧rest row exists the inner
			// antijoin can empty the pipeline before the θ-part builds.
			split = algebra.SemiJoin{
				L: algebra.SemiJoin{
					L:    sj.L,
					R:    algebra.Select{Child: sj.R, Cond: algebra.NewOr(rho...)},
					Cond: algebra.NewAnd(rest...),
					Anti: true,
				},
				R:    algebra.Select{Child: sj.R, Cond: algebra.NewAnd(rhoNeg...)},
				Cond: thetaCond,
				Anti: true,
			}
		}
		if o.estimate(split).cost >= o.estimate(sj).cost {
			continue // splitting this disjunction doesn't pay
		}
		return split, true
	}
	return nil, false
}

// nullFreeIn returns the null-free oracle for the output columns of e:
// schema nullability propagated by analyze.NonNullCols under naive
// strength, valid for both semantics. NOT NULL is enforced on every
// write, so its facts hold on every database of the schema, and
// resolving null tests against it (algebra.ResolveNullTests) keeps and
// drops exactly the same rows whatever the data. A nullable column
// that happens to hold no nulls is not null-free: that is a fact about
// the data, and a plan must not depend on it.
func (o *optimizer) nullFreeIn(e algebra.Expr) func(int) bool {
	static := analyze.NonNullCols(e, o.sch, analyze.StrengthNaive)
	return func(col int) bool {
		return col >= 0 && col < len(static) && static[col]
	}
}

// nullFreeJoin is nullFreeIn for a semijoin condition, whose columns
// 0..nL-1 refer to L and the rest to R.
func (o *optimizer) nullFreeJoin(l, r algebra.Expr) func(int) bool {
	nL := l.Arity()
	lFree, rFree := o.nullFreeIn(l), o.nullFreeIn(r)
	return func(col int) bool {
		if col < nL {
			return lFree(col)
		}
		return rFree(col - nL)
	}
}

// hasMinters reports whether evaluating e can mint fresh marked nulls:
// any GroupBy (empty-group aggregates) or any scalar subquery operand.
// Rules that change whether or how often a subtree is evaluated must
// not fire near minters, since mark identities appear in result bytes.
func hasMinters(e algebra.Expr) bool {
	mint := false
	algebra.Walk(e, func(x algebra.Expr) {
		// vetcert:ignore famexhaustive: only the operators that can mint
		// marks matter; Walk already visits every node.
		switch n := x.(type) {
		case algebra.GroupBy:
			mint = true
		case algebra.Select:
			if algebra.HasScalar(n.Cond) {
				mint = true
			}
		case algebra.SemiJoin:
			if algebra.HasScalar(n.Cond) {
				mint = true
			}
		}
	})
	return mint
}
