package eval

import (
	"fmt"
	"slices"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// The unification operator (DESIGN.md §16). A unification edge is a join
// conjunct of the shape
//
//	a = b  OR  a IS NULL  OR  b IS NULL     (any subset of the null tests)
//
// — the certain-answer translation's signature pattern, and per Section
// 7 of the paper exactly the shape that forces real optimizers into
// nested loops: the disjunction defeats hash-key extraction. This engine
// hashes it anyway: the build side goes into a table.Index under the
// NullsWild policy — buckets for the null-free keys plus a wild list of
// the null-keyed rows — and a probe row verifies only its key's bucket
// merged with the wild rows. The full condition is still evaluated per
// surviving candidate, so the index is a pure superset filter, and
// candidates come in ascending build order, so every consumer emits
// exactly the rows, in exactly the order, of the nested loop it
// replaces. The same index
// serves the join block's Cartesian step (wildStep), the
// (anti-)semijoin's nested-loop arm (prepSemi) and R ⋉⇑ S
// (evalUnifySemi), at every Parallelism setting — the worker count
// splits probe rows and nothing else, so Stats.CostUnits of a
// unification operator does not depend on it. Options.NoHashJoin
// disables the index along with every other hash strategy: NoOrSplit +
// NoHashJoin is the paper's confused optimizer.

// unifyEdgeOf reports whether the NNF conjunct c is a unification edge,
// returning the two column positions: a disjunction of exactly one
// column equality and non-negated null tests on those same two columns
// (a bare column equality is the degenerate edge with no null tests).
func unifyEdgeOf(c algebra.Cond) (a, b int, ok bool) {
	colEq := func(c algebra.Cond) (int, int, bool) {
		cmp, isCmp := c.(algebra.Cmp)
		if !isCmp || cmp.Op != algebra.EQ {
			return 0, 0, false
		}
		l, lok := cmp.L.(algebra.Col)
		r, rok := cmp.R.(algebra.Col)
		if !lok || !rok || l.Idx == r.Idx {
			return 0, 0, false
		}
		return l.Idx, r.Idx, true
	}
	if a, b, ok = colEq(c); ok {
		return a, b, true
	}
	or, isOr := c.(algebra.Or)
	if !isOr {
		return 0, 0, false
	}
	found := false
	var tests []int
	for _, d := range or.Conds {
		if x, y, isEq := colEq(d); isEq {
			if found {
				return 0, 0, false // two equalities: not a single edge
			}
			a, b, found = x, y, true
			continue
		}
		nt, isNull := d.(algebra.NullTest)
		if !isNull || nt.Negated {
			return 0, 0, false
		}
		col, isCol := nt.Operand.(algebra.Col)
		if !isCol {
			return 0, 0, false
		}
		tests = append(tests, col.Idx)
	}
	if !found {
		return 0, 0, false
	}
	for _, idx := range tests {
		if idx != a && idx != b {
			return 0, 0, false
		}
	}
	return a, b, true
}

// SpanningUnifyEdge finds the first conjunct of cond (in NNF) that is a
// unification edge spanning the probe/build split at nL, returned as
// (probe column, build column local to the build side). Exported for
// the planner's cost model, which prices the strategy prepSemi picks.
func SpanningUnifyEdge(cond algebra.Cond, nL int) (lCol, rCol int, ok bool) {
	for _, c := range algebra.Conjuncts(cond) {
		a, b, isEdge := unifyEdgeOf(c)
		if !isEdge {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if a < nL && b >= nL {
			return a, b - nL, true
		}
	}
	return 0, 0, false
}

// chargeUnifyBuild accounts for a wild-bucket index build like every
// other hash build: the hash-build fault site, the strategy counter,
// and one cost unit per build row.
func (ev *Evaluator) chargeUnifyBuild(op string, rows int) error {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return err
	}
	ev.stats.UnifyJoins++
	return ev.charge(op, int64(rows))
}

// wildStep joins leaf st.Leaf to the tuples on the step's unification
// edge without materializing the Cartesian product: each tuple verifies
// cond — the edge and whatever else the step completes, in canonical
// columns, resolved — exactly as filtering would, but only against the
// candidates of its key, in ascending leaf order. The pairs are
// therefore the product-then-filter pairs, in the same order.
func (ev *Evaluator) wildStep(s *joinSet, st JoinStep, cond algebra.Cond) ([][2]int, error) {
	leaf, off := s.leaves[st.Leaf], s.jb.offsets[st.Leaf]
	if err := ev.chargeUnifyBuild("unify-product", leaf.Len()); err != nil {
		return nil, err
	}
	b := table.BuildIndex(leaf.Rows(), []int{st.BuildCol - off}, table.NullsWild, 0, nil)
	// Built once, borrowed read-only by every probe partition: charged
	// once here, at the owner.
	n := b.EstimatedBytes()
	defer ev.gov.ReleaseMem(n) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("unify-product", n); err != nil {
		return nil, err
	}
	curCols := slices.DeleteFunc(algebra.ColsUsed(cond), func(c int) bool { return s.jb.owner[c] == st.Leaf })
	rows := leaf.Rows()
	pairs, err := ev.probePairs("unify-product", s.len(), b, []int{st.ProbeCol}, s.probeRow(curCols),
		func(c *chunk, j int) (bool, error) {
			row := c.scratch(s.arity())
			copy(row[off:], rows[j])
			v, err := ev.evalCond(cond, row)
			return v.IsTrue(), err
		})
	if err != nil {
		return nil, err
	}
	ev.note("unify-product %d × %d on #%d ≈ #%d, wild-hash %d keyed / %d wild -> %d rows",
		s.len(), leaf.Len(), st.ProbeCol, st.BuildCol, b.Keyed(), b.Wild(), len(pairs))
	return pairs, nil
}

// evalUnifySemi executes a unification (anti-)semijoin R ⋉⇑ S: the
// build side is indexed on the full row, and tuple unification —
// which handles repeated marked nulls — decides each candidate.
func (ev *Evaluator) evalUnifySemi(e algebra.UnifySemi) (*table.Table, error) {
	l, err := ev.evalChild(e.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalChild(e.R)
	if err != nil {
		return nil, err
	}
	if l.Arity() != r.Arity() {
		return nil, fmt.Errorf("eval: unification semijoin of arities %d and %d", l.Arity(), r.Arity())
	}
	name := "unify-semijoin"
	if e.Anti {
		name = "unify-antijoin"
	}
	rRows, all := r.Rows(), rangeInts(r.Arity())
	var b *table.Index
	if !ev.opts.NoHashJoin {
		if err := ev.chargeUnifyBuild(name, r.Len()); err != nil {
			return nil, err
		}
		b = table.BuildIndex(rRows, all, table.NullsWild, 0, nil)
		n := b.EstimatedBytes()
		defer ev.gov.ReleaseMem(n) // a failed charge too: ChargeMem adds before checking
		if err := ev.gov.ChargeMem(name, n); err != nil {
			return nil, err
		}
		ev.note("%s wild-hash %d keyed / %d wild", name, b.Keyed(), b.Wild())
	} else {
		ev.stats.NestedLoopJoins++
	}
	kept, err := ev.keepRows(name, l.Rows(), "", func(c *chunk, lr table.Row) (bool, error) {
		cur := table.ScanCursor(len(rRows))
		if b != nil {
			c.st.costUnits++
			cur = b.Probe(lr, all)
		}
		for ri, ok := cur.Next(); ok; ri, ok = cur.Next() {
			c.st.costUnits++
			if value.UnifyTuples(lr, rRows[ri]) {
				return !e.Anti, nil
			}
		}
		return e.Anti, nil
	})
	if err != nil {
		return nil, err
	}
	out, err := concatChunks(ev.gov, l.Arity(), [][]table.Row{kept})
	if err != nil {
		return nil, err
	}
	ev.note("%s %d ⇑ %d -> %d rows", name, l.Len(), r.Len(), out.Len())
	return out, nil
}
