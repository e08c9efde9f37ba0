package certain

import (
	"certsql/internal/algebra"
)

// splitOrs applies the syntactic manipulation of Section 7: a NOT EXISTS
// subquery whose condition is a disjunction ∨ᵢ φᵢ splits into a
// conjunction of NOT EXISTS subqueries, one per disjunct:
//
//	¬∃x̄ (φ₁ ∨ φ₂)  ≡  ¬∃x̄ φ₁ ∧ ¬∃x̄ φ₂
//
// i.e. L ▷(φ₁∨φ₂) R becomes (L ▷φ₁ R) ▷φ₂ R. Before splitting, the
// selection directly under the antijoin's inner side is pulled into the
// condition, and after splitting each disjunct's pure-inner conjuncts
// are pushed back down as a selection on the inner side. The effect is
// the paper's: each resulting anti-semijoin has a plain conjunctive
// condition, so the planner can extract hash keys again — and disjuncts
// that lost all correlation (like Q⁺2's `o_custkey IS NULL` branch)
// become uncorrelated subqueries answered once.
func (t *Translator) splitOrs(e algebra.Expr) algebra.Expr {
	switch e := e.(type) {
	case algebra.SemiJoin:
		l := t.splitOrs(e.L)
		nL := e.L.Arity()

		// Pull selections under the inner side into the condition.
		inner := e.R
		cond := algebra.NNF(e.Cond)
		for {
			sel, ok := inner.(algebra.Select)
			if !ok {
				break
			}
			lifted := algebra.MapCols(algebra.NNF(sel.Cond), func(c int) int { return c + nL })
			cond = algebra.NewAnd(cond, lifted)
			inner = sel.Child
		}
		inner = t.splitOrs(inner)

		if !e.Anti {
			// Semijoins are not split (EXISTS distributes over OR as a
			// union, which does not help the planner); just push the
			// pure-inner conjuncts back down.
			innerConj, cross := partitionInner(cond, nL)
			return algebra.SemiJoin{L: l, R: pushInner(inner, innerConj, nL), Cond: cross}
		}

		// Split selectively, mirroring what the paper does by hand: Q⁺1
		// and Q⁺3 are not split at all, Q⁺2 is split to decorrelate its
		// IS NULL branch, and Q⁺4 is split on the disjunctions of the
		// relation it is correlated through (lineitem), giving the
		// appendix's four branches; part_view's and supp_view's own
		// disjunctions stay intact inside them. The criteria:
		//
		//   - a disjunction local to a single relation occurrence
		//     (`p_name LIKE … OR p_name IS NULL`) is an ordinary
		//     filter and is never split;
		//   - a disjunction spanning two *inner* occurrences is split
		//     only when one of them is an anchor — a leaf some conjunct
		//     ties to the outer side. `l_partkey = p_partkey OR
		//     l_partkey IS NULL` sits on the anchor lineitem: unsplit it
		//     keeps part inside every probe of the antijoin, split it
		//     leaves part a disconnected EXISTS answered once.
		//     `s_nationkey = n_nationkey OR s_nationkey IS NULL` joins
		//     two non-anchors: it stays atomic and travels with its
		//     cube, and the executor's join block runs such an edge on
		//     the hashed wild-bucket index (eval.JoinWildHash), so
		//     splitting it would only add passes over the anchor. A
		//     subquery with no anchor has no probe side to protect and
		//     splits every such disjunction;
		//   - a disjunction spanning outer and inner (a correlation
		//     like `o_custkey = c_custkey OR o_custkey IS NULL`) is
		//     split only when no pure cross equality conjunct remains —
		//     if one does (Q1's and Q3's `l_orderkey = o_orderkey`),
		//     the anti-join can hash on it and the disjunction is a
		//     harmless residual.
		group := groupOf(inner, nL)
		hasCrossEQ := false
		anchors := map[int]bool{}
		for _, c := range algebra.Conjuncts(cond) {
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				a, aok := cmp.L.(algebra.Col)
				b, bok := cmp.R.(algebra.Col)
				if aok && bok && (a.Idx < nL) != (b.Idx < nL) {
					hasCrossEQ = true
				}
			}
			if outer, leaves := leavesOf(c, group); outer {
				for g := range leaves {
					anchors[g] = true
				}
			}
		}
		var atomic []algebra.Cond
		cubes := [][]algebra.Cond{nil}
		for _, c := range algebra.Conjuncts(cond) {
			or, isOr := c.(algebra.Or)
			if !isOr || !shouldSplit(c, group, hasCrossEQ, anchors) {
				atomic = append(atomic, c)
				continue
			}
			var next [][]algebra.Cond
			for _, d := range algebra.Disjuncts(algebra.DNF(or)) {
				add := algebra.Conjuncts(d)
				for _, cube := range cubes {
					merged := make([]algebra.Cond, 0, len(cube)+len(add))
					merged = append(merged, cube...)
					merged = append(merged, add...)
					next = append(next, merged)
				}
			}
			cubes = next
		}

		out := l
		for _, cube := range cubes {
			full := append(append([]algebra.Cond{}, atomic...), cube...)
			out = buildCubeAntiJoin(out, inner, nL, full)
		}
		return out
	default:
		return algebra.MapChildren(e, t.splitOrs)
	}
}

// buildCubeAntiJoin assembles one NOT EXISTS branch for a cube of
// conjuncts. Beyond pushing pure-inner conjuncts down as selections, it
// decomposes the cube's join graph into connected components: only the
// component reachable from the outer correlation stays as the
// subquery's FROM body; every other component contributes a bare
// existence test — an uncorrelated semijoin, which the evaluator
// answers once. This is exactly the shape of the paper's Q⁺4, whose
// branches read
//
//	NOT EXISTS ( SELECT * FROM lineitem, supp_view
//	             WHERE l_orderkey = o_orderkey AND l_partkey IS NULL
//	               AND l_suppkey = s_suppkey
//	               AND EXISTS ( SELECT * FROM part_view ) )
//
// and it is what keeps the branch from computing a Cartesian product of
// lineitem with the disconnected part side.
func buildCubeAntiJoin(l algebra.Expr, inner algebra.Expr, nL int, conj []algebra.Cond) algebra.Expr {
	leaves := algebra.Leaves(inner)
	offs := leafOffsets(leaves)

	// Union-find over {outer} ∪ leaves; conjuncts link what they touch.
	// Node 0 is the outer side; node g+1 is leaf g.
	parent := make([]int, len(leaves)+1)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	type condInfo struct {
		c      algebra.Cond
		outer  bool
		groups []int
	}
	infos := make([]condInfo, len(conj))
	for i, c := range conj {
		info := condInfo{c: c}
		seen := map[int]bool{}
		for _, col := range algebra.ColsUsed(c) {
			if col < nL {
				info.outer = true
				continue
			}
			g := leafAt(offs, col-nL)
			if !seen[g] {
				seen[g] = true
				info.groups = append(info.groups, g)
			}
		}
		for _, g := range info.groups {
			if info.outer {
				union(0, g+1)
			}
			union(info.groups[0]+1, g+1)
		}
		infos[i] = info
	}

	// Leaves connected (transitively) to the outer side form the
	// subquery body; if none are, promote the first leaf's component so
	// the body is never empty.
	outerRoot := find(0)
	connected := make([]bool, len(leaves))
	anyConnected := false
	for g := range leaves {
		if find(g+1) == outerRoot {
			connected[g] = true
			anyConnected = true
		}
	}
	if !anyConnected {
		promoted := find(1)
		for g := range leaves {
			if find(g+1) == promoted {
				connected[g] = true
			}
		}
	}

	// New layout for the connected leaves, preserving relative order.
	newOff := make([]int, len(leaves))
	pos := 0
	var connLeaves []algebra.Expr
	for g, leaf := range leaves {
		if connected[g] {
			newOff[g] = pos
			pos += leaf.Arity()
			connLeaves = append(connLeaves, leaf)
		}
	}

	// Distribute conjuncts.
	var crossConds, connConds []algebra.Cond
	compConds := map[int][]algebra.Cond{} // component root -> conds
	for _, info := range infos {
		switch {
		case info.outer || len(info.groups) == 0:
			crossConds = append(crossConds, info.c)
		case connected[info.groups[0]]:
			connConds = append(connConds, info.c)
		default:
			root := find(info.groups[0] + 1)
			compConds[root] = append(compConds[root], info.c)
		}
	}

	// Assemble the body: connected product, its filter, then one
	// uncorrelated existence semijoin per disconnected component.
	body := algebra.ProductOf(connLeaves)
	if len(connConds) > 0 {
		local := algebra.MapCols(algebra.NewAnd(connConds...), func(c int) int {
			g := leafAt(offs, c-nL)
			return newOff[g] + (c - nL - offs[g])
		})
		body = algebra.Select{Child: body, Cond: local}
	}
	// Deterministic component order: by smallest member leaf.
	for g := range leaves {
		if connected[g] {
			continue
		}
		root := find(g + 1)
		var compLeaves []algebra.Expr
		compOff := make(map[int]int)
		cpos := 0
		first := -1
		for h := g; h < len(leaves); h++ {
			if !connected[h] && find(h+1) == root {
				if first == -1 {
					first = h
				}
				compOff[h] = cpos
				cpos += leaves[h].Arity()
				compLeaves = append(compLeaves, leaves[h])
				connected[h] = true // consume
			}
		}
		comp := algebra.ProductOf(compLeaves)
		if conds := compConds[root]; len(conds) > 0 {
			local := algebra.MapCols(algebra.NewAnd(conds...), func(c int) int {
				h := leafAt(offs, c-nL)
				return compOff[h] + (c - nL - offs[h])
			})
			comp = algebra.Select{Child: comp, Cond: local}
		}
		body = algebra.SemiJoin{L: body, R: comp, Cond: algebra.TrueCond{}}
	}

	cross := algebra.MapCols(algebra.NewAnd(crossConds...), func(c int) int {
		if c < nL {
			return c
		}
		g := leafAt(offs, c-nL)
		return nL + newOff[g] + (c - nL - offs[g])
	})
	return algebra.SemiJoin{L: l, R: body, Cond: cross, Anti: true}
}

// leafOffsets returns the first column of each leaf of a product chain.
func leafOffsets(leaves []algebra.Expr) []int {
	offs := make([]int, len(leaves))
	for i := 1; i < len(leaves); i++ {
		offs[i] = offs[i-1] + leaves[i-1].Arity()
	}
	return offs
}

// leafAt returns the leaf holding column c of the chain whose leaves
// start at offs.
func leafAt(offs []int, c int) int {
	g := 0
	for g+1 < len(offs) && offs[g+1] <= c {
		g++
	}
	return g
}

// groupOf maps semijoin-coordinate columns to relation occurrences: the
// outer side is group -1; each leaf of the inner product chain is its
// own group.
func groupOf(inner algebra.Expr, nL int) func(col int) int {
	offs := leafOffsets(algebra.Leaves(inner))
	return func(col int) int {
		if col < nL {
			return -1
		}
		return leafAt(offs, col-nL)
	}
}

// leavesOf reports whether c references the outer side and which inner
// leaves it references.
func leavesOf(c algebra.Cond, group func(int) int) (outer bool, inner map[int]bool) {
	inner = map[int]bool{}
	for _, col := range algebra.ColsUsed(c) {
		if g := group(col); g < 0 {
			outer = true
		} else {
			inner[g] = true
		}
	}
	return outer, inner
}

// shouldSplit decides whether a disjunctive conjunct must be
// distributed; see the criteria at the call site. anchors holds the
// inner leaves that some conjunct ties to the outer side.
func shouldSplit(c algebra.Cond, group func(int) int, hasCrossEQ bool, anchors map[int]bool) bool {
	outer, inner := leavesOf(c, group)
	if len(inner) >= 2 {
		// Breaks an inner join edge: split when it is on the
		// correlated relation, or when there is none.
		for g := range inner {
			if anchors[g] {
				return true
			}
		}
		return len(anchors) == 0
	}
	if outer && len(inner) >= 1 {
		return !hasCrossEQ // correlation disjunction with no hashable fallback
	}
	return false
}

// partitionInner splits the conjuncts of a cube into those referencing
// only inner columns (index ≥ nL) and the rest (cross conditions,
// including constant-only conjuncts, which stay on the join so that a
// fully decorrelated branch is detected by the evaluator).
func partitionInner(cube algebra.Cond, nL int) (inner algebra.Cond, cross algebra.Cond) {
	var innerParts, crossParts []algebra.Cond
	for _, c := range algebra.Conjuncts(cube) {
		cols := algebra.ColsUsed(c)
		pureInner := len(cols) > 0
		for _, col := range cols {
			if col < nL {
				pureInner = false
				break
			}
		}
		if pureInner {
			innerParts = append(innerParts, c)
		} else {
			crossParts = append(crossParts, c)
		}
	}
	return algebra.NewAnd(innerParts...), algebra.NewAnd(crossParts...)
}

// pushInner wraps inner in a selection on the given condition (shifted
// back to the inner side's own coordinates), unless it is trivial.
func pushInner(inner algebra.Expr, cond algebra.Cond, nL int) algebra.Expr {
	if _, ok := cond.(algebra.TrueCond); ok {
		return inner
	}
	local := algebra.MapCols(cond, func(c int) int { return c - nL })
	return algebra.Select{Child: inner, Cond: local}
}
