package eval

import (
	"fmt"
	"sync/atomic"

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
// serves the join block's Cartesian step (unifyProduct), the
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

// unifyProduct joins l and r on a unification edge without
// materializing the Cartesian product: each l row is verified — full
// cond evaluation, exactly filterTable's — only against the candidates
// of its key, in ascending r order. The output rows are therefore the
// product-then-filter rows, in the same order, with no intermediate
// |L|·|R| table. cond is the edge conjunct — and whatever else the
// caller wants verified per candidate — remapped to the concatenated
// row and resolved.
func (ev *Evaluator) unifyProduct(l, r *table.Table, lCol, rCol int, cond algebra.Cond) (*table.Table, error) {
	if err := ev.chargeUnifyBuild("unify-product", r.Len()); err != nil {
		return nil, err
	}
	b := table.BuildIndex(r.Rows(), []int{rCol}, table.NullsWild, 0, nil)
	// Built once, borrowed read-only by every probe partition: charged
	// once here, at the owner.
	n := b.EstimatedBytes()
	defer ev.gov.ReleaseMem(n) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("unify-product", n); err != nil {
		return nil, err
	}

	arity := l.Arity() + r.Arity()
	lRows, rRows := l.Rows(), r.Rows()
	chunks := make([][]table.Row, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	lCols := []int{lCol}
	err := ev.runChunks(l.Len(), "unify-product", func(c *chunk) error {
		var out []table.Row
		row := c.scratch(arity)
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			lr := lRows[i]
			copy(row, lr)
			c.st.costUnits++
			cur := b.Probe(lr, lCols, &c.key)
			for ri, ok := cur.Next(); ok; ri, ok = cur.Next() {
				c.st.costUnits++
				copy(row[len(lr):], rRows[ri])
				v, err := ev.evalCond(cond, row)
				if err != nil {
					return err
				}
				if !v.IsTrue() {
					continue
				}
				out = append(out, append(table.Row(nil), row...))
				if outRows.Add(1) > maxRows {
					return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "unify-product",
						Detail: fmt.Sprintf("result exceeds %d rows", maxRows)}
				}
			}
		}
		chunks[c.part] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out, err := concatChunks(ev.gov, arity, chunks)
	if err != nil {
		return nil, err
	}
	ev.note("unify-product %d × %d on #%d ≈ #%d, wild-hash %d keyed / %d wild -> %d rows",
		l.Len(), r.Len(), lCol, l.Arity()+rCol, b.Keyed(), b.Wild(), out.Len())
	return out, nil
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
			cur = b.Probe(lr, all, &c.key)
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
