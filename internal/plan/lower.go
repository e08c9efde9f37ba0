package plan

import (
	"slices"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/value"
)

// Physical is what the physical lowering reads besides the plan: the
// semantics the plan runs under and whether the view cache is off. The
// zero value is SQL3VL with the cache on, the facade's default.
type Physical struct {
	Semantics   value.Semantics
	NoViewCache bool
}

// Lower is the physical lowering alone, for the paper-faithful route
// (Options.NaivePlanner): Rewrite's last step, without the planner's
// rules and its SlimVerify and FuseBuild hints.
func Lower(e algebra.Expr, ph Physical) *Result {
	return (&lowerer{Physical: ph, root: e}).result(e)
}

// lowerer is one physical lowering. Under SQL3VL a comparison or LIKE is
// unknown on a null operand, so a const(x) guard beside one that reads x
// filters nothing: the lowering drops such guards from join blocks and
// from the Select build sides of (anti-)semijoins whose condition
// compares x, and reads a hash-keyed build side σ[θ ∨ null(a) ∨ …](R) in
// two parts (eval.SplitBuild) where its probe side drains σ[θ](R). Under
// naive semantics a comparison on a marked null can hold, so every guard
// stays. A build side the view cache serves is left alone, and
// scalar-subquery bodies are run as written.
type lowerer struct {
	Physical
	root   algebra.Expr
	hinted bool // derive SlimVerify and FuseBuild, the planner's hints
	fired  map[RuleKind]bool
	semi   map[string]eval.SemiHint
	splits []algebra.Select
}

// result lowers e and decides what the view cache can do for it.
func (l *lowerer) result(e algebra.Expr) *Result {
	out, changed := l.lower(e)
	res := &Result{Expr: out, Hints: &eval.PlanHints{Semi: l.semi, Views: &eval.Views{NoHits: true}}}
	if !l.NoViewCache {
		res.Hints.Views = eval.PlanViews(out, l.splits...)
	}
	res.Changed = changed || len(l.semi) > 0
	return res
}

// lower rebuilds e bottom-up, children in evaluation order; changed
// reports a new expression. Unchanged subtrees are returned as they are.
func (l *lowerer) lower(e algebra.Expr) (out algebra.Expr, changed bool) {
	kids, n := algebra.Children(e)
	for i, k := range kids[:n] {
		var c bool
		kids[i], c = l.lower(k)
		changed = changed || c
	}
	if changed {
		i := 0
		e = algebra.MapChildren(e, func(algebra.Expr) algebra.Expr { i++; return kids[i-1] })
	}
	switch x := e.(type) { // vetcert:ignore famexhaustive: only join blocks and (anti-)semijoins are lowered
	case algebra.Select:
		if !isProductChain(x.Child) || l.Semantics != value.SQL3VL {
			break
		}
		conjs := algebra.Conjuncts(nnf(x.Cond))
		if kept, ok := withoutGuards(conjs, strictCols(conjs, 0)); ok {
			x.Cond = algebra.NewAnd(kept...)
			return x, true
		}
	case algebra.SemiJoin:
		return l.lowerSemi(x, changed)
	}
	return e, changed
}

// lowerSemi lowers an (anti-)semijoin whose children are lowered.
func (l *lowerer) lowerSemi(sj algebra.SemiJoin, changed bool) (algebra.Expr, bool) {
	cond, nL := nnf(sj.Cond), sj.L.Arity()
	keys, _, _ := eval.SemiKeys(cond, nL)
	sel, isSel := sj.R.(algebra.Select)
	// served reports, once asked, whether the view cache serves the
	// build side: it occurs twice in the plan, or sj.L drains it.
	var known, served bool
	isServed := func() bool {
		if !known {
			known = true
			served = !l.NoViewCache && (eval.Drains(l.root, sel, false) > 1 || eval.Drains(sj.L, sel, true) > 0)
		}
		return served
	}
	var h eval.SemiHint
	// An uncorrelated subquery is answered once, from R as it stands.
	if isSel && l.Semantics == value.SQL3VL && algebra.UsesColBelow(cond, nL) {
		if kept, ok := withoutGuards(algebra.Conjuncts(sel.Cond), strictCols(algebra.Conjuncts(cond), nL)); ok && !isServed() {
			sel.Cond, sj.R, changed, known = algebra.NewAnd(kept...), sel, true, false
			if len(kept) == 0 {
				sj.R = sel.Child
			}
			sel, isSel = sj.R.(algebra.Select)
		}
		if read, nulls, ok := splitRead(sel); ok && isSel && len(keys) > 0 && !l.NoViewCache &&
			eval.ViewKey(read) != "" && !isServed() && eval.Drains(sj.L, read, true) > 0 {
			h.Split = &eval.SplitBuild{Cached: read, Nulls: nulls}
			l.splits = append(l.splits, read)
		}
	}
	if l.hinted && len(keys) > 0 {
		// Slim verification holds for every extracted key pair on any
		// data: key encodings are equal exactly when Compare calls the
		// values equal, for every kind and across int and float.
		h.SlimVerify = true
		l.fired[RuleSlimVerify] = true
		// A fused selection over a stored relation is scalar-free, so
		// nothing skipped can mint marked nulls; one the null lists serve
		// is not fused, which would stream all of R past the filter.
		if _, base := sel.Child.(algebra.Base); isSel && base && h.Split == nil && !algebra.HasScalar(sel.Cond) &&
			len(algebra.NullScans(sel.Cond)) == 0 && !isServed() {
			h.FuseBuild = true
			l.fired[RuleFuseBuild] = true
		}
	}
	if h != (eval.SemiHint{}) {
		if l.semi == nil {
			l.semi = map[string]eval.SemiHint{}
		}
		l.semi[sj.Key()] = h
	}
	return sj, changed
}

// splitRead returns the parts a build side sel = σ[θ ∨ null(a) ∨ …](R)
// over a stored relation R is read in: σ[θ](R) and the columns a, ….
// ok is false for any other shape, and unless θ compares each column
// directly.
func splitRead(sel algebra.Select) (read algebra.Select, nulls []int, ok bool) {
	or, isOr := sel.Cond.(algebra.Or)
	if _, isBase := sel.Child.(algebra.Base); !isBase || !isOr {
		return read, nil, false
	}
	var theta []algebra.Cond
	for _, d := range or.Conds {
		if n, isTest := d.(algebra.NullTest); isTest && !n.Negated {
			if col, isCol := n.Operand.(algebra.Col); isCol {
				nulls = append(nulls, col.Idx)
				continue
			}
		}
		theta = append(theta, d)
	}
	read = algebra.Select{Child: sel.Child, Cond: algebra.NewOr(theta...)}
	strict := strictCols(algebra.Conjuncts(read.Cond), 0)
	ok = len(nulls) > 0 && len(theta) > 0 &&
		!slices.ContainsFunc(nulls, func(c int) bool { return !slices.Contains(strict, c) })
	return read, nulls, ok
}

// strictCols returns the columns from from on, counted from it, that
// are a direct operand of a comparison or LIKE among conjs.
func strictCols(conjs []algebra.Cond, from int) []int {
	var cols []int
	for _, c := range conjs {
		var ops [2]algebra.Operand
		switch c := c.(type) { // vetcert:ignore famexhaustive: only comparisons and LIKE read their operands strictly
		case algebra.Cmp:
			ops = [2]algebra.Operand{c.L, c.R}
		case algebra.Like:
			ops = [2]algebra.Operand{c.Operand, c.Pattern}
		}
		for _, o := range ops {
			if col, ok := o.(algebra.Col); ok && col.Idx >= from {
				cols = append(cols, col.Idx-from)
			}
		}
	}
	return cols
}

// withoutGuards returns conjs without each const(x) conjunct — x IS NOT
// NULL on a column x — whose x is in strict; ok is false when there is
// none.
func withoutGuards(conjs []algebra.Cond, strict []int) (kept []algebra.Cond, ok bool) {
	for i, c := range conjs {
		if n, isTest := c.(algebra.NullTest); isTest && n.Negated {
			if col, isCol := n.Operand.(algebra.Col); isCol && slices.Contains(strict, col.Idx) {
				if !ok {
					kept, ok = append(make([]algebra.Cond, 0, len(conjs)-1), conjs[:i]...), true
				}
				continue
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return kept, ok
}
