package eval

import (
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/table"
	"certsql/internal/tvl"
	"certsql/internal/value"
)

// evalCond evaluates a condition over a row under the evaluator's
// semantics. Under SQL3VL the result is three-valued with Kleene
// connectives; under Naive it is two-valued (Unknown never arises).
func (ev *Evaluator) evalCond(c algebra.Cond, row table.Row) (tvl.TV, error) {
	switch c := c.(type) {
	case algebra.TrueCond:
		return tvl.True, nil
	case algebra.FalseCond:
		return tvl.False, nil

	case algebra.Cmp:
		l, err := ev.operand(c.L, row)
		if err != nil {
			return tvl.False, err
		}
		r, err := ev.operand(c.R, row)
		if err != nil {
			return tvl.False, err
		}
		return ev.compare(c.Op, l, r), nil

	case algebra.Like:
		o, err := ev.operand(c.Operand, row)
		if err != nil {
			return tvl.False, err
		}
		p, err := ev.operand(c.Pattern, row)
		if err != nil {
			return tvl.False, err
		}
		res := value.Like(ev.opts.Semantics, o, p)
		if c.Negated {
			res = res.Not()
		}
		return res, nil

	case algebra.NullTest:
		o, err := ev.operand(c.Operand, row)
		if err != nil {
			return tvl.False, err
		}
		// IS NULL / IS NOT NULL are two-valued even in SQL.
		res := tvl.FromBool(o.IsNull())
		if c.Negated {
			res = res.Not()
		}
		return res, nil

	case algebra.And:
		res := tvl.True
		for _, sub := range c.Conds {
			v, err := ev.evalCond(sub, row)
			if err != nil {
				return tvl.False, err
			}
			res = res.And(v)
			if res.IsFalse() {
				return res, nil
			}
		}
		return res, nil

	case algebra.Or:
		res := tvl.False
		for _, sub := range c.Conds {
			v, err := ev.evalCond(sub, row)
			if err != nil {
				return tvl.False, err
			}
			res = res.Or(v)
			if res.IsTrue() {
				return res, nil
			}
		}
		return res, nil

	case algebra.Not:
		v, err := ev.evalCond(c.C, row)
		if err != nil {
			return tvl.False, err
		}
		return v.Not(), nil

	default:
		return tvl.False, fmt.Errorf("eval: unknown condition %T", c)
	}
}

// compare evaluates one comparison atom under the active semantics.
func (ev *Evaluator) compare(op algebra.CmpOp, l, r value.Value) tvl.TV {
	sem := ev.opts.Semantics
	switch op {
	case algebra.EQ:
		return value.Equal(sem, l, r)
	case algebra.NE:
		return value.Equal(sem, l, r).Not()
	case algebra.LT:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c < 0 })
	case algebra.LE:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c <= 0 })
	case algebra.GT:
		return value.OrderCmp(sem, l, r, func(c int) bool { return c > 0 })
	default: // GE
		return value.OrderCmp(sem, l, r, func(c int) bool { return c >= 0 })
	}
}

// operand resolves an operand against a row; scalar subqueries are
// computed once per evaluator and cached (the paper's black-box
// treatment of aggregate subqueries).
func (ev *Evaluator) operand(o algebra.Operand, row table.Row) (value.Value, error) {
	switch o := o.(type) {
	case algebra.Col:
		if o.Idx < 0 || o.Idx >= len(row) {
			return value.Value{}, fmt.Errorf("eval: column #%d out of range for row of arity %d", o.Idx, len(row))
		}
		return row[o.Idx], nil
	case algebra.Lit:
		return o.Val, nil
	case algebra.Scalar:
		return ev.scalarValue(o)
	default:
		return value.Value{}, fmt.Errorf("eval: unknown operand %T", o)
	}
}

// scalarValue computes (and caches) an uncorrelated scalar aggregate
// subquery. SQL semantics: nulls in the aggregated column are ignored;
// AVG/SUM/MIN/MAX over an empty input are NULL (rendered here as a
// freshly-marked null disjoint from every database null, which makes
// any comparison against them unknown under SQL3VL and never unifies
// with another null under naive semantics); COUNT over an empty input
// is 0.
func (ev *Evaluator) scalarValue(s algebra.Scalar) (value.Value, error) {
	key := s.String()
	if v, ok := ev.scalar[key]; ok {
		return v, nil
	}
	t, err := ev.evalChild(s.Sub)
	if err != nil {
		return value.Value{}, err
	}
	var (
		count int64
		sum   float64
		min   value.Value
		max   value.Value
		have  bool
	)
	for _, r := range t.Rows() {
		if s.Col < 0 {
			// COUNT(*): count rows, nulls included.
			count++
			continue
		}
		v := r[s.Col]
		if v.IsNull() {
			continue
		}
		count++
		switch s.Agg {
		case algebra.AggCount:
			// already tallied above; COUNT keeps no running value
		case algebra.AggAvg, algebra.AggSum:
			sum += v.AsFloat()
		case algebra.AggMin:
			if !have {
				min = v
			} else if c, ok := value.Compare(v, min); ok && c < 0 {
				min = v
			}
		case algebra.AggMax:
			if !have {
				max = v
			} else if c, ok := value.Compare(v, max); ok && c > 0 {
				max = v
			}
		}
		have = true
	}
	var out value.Value
	switch s.Agg {
	case algebra.AggCount:
		out = value.Int(count)
	case algebra.AggSum:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = value.Float(sum)
		}
	case algebra.AggAvg:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = value.Float(sum / float64(count))
		}
	case algebra.AggMin:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = min
		}
	case algebra.AggMax:
		if !have {
			out = ev.freshAggNull()
		} else {
			out = max
		}
	}
	ev.scalar[key] = out
	return out, nil
}

// Redundant const() guards. Under SQL's three-valued logic a comparison
// or LIKE with a null operand is unknown, so a conjunction holding one
// is never true on a row with a null in a column that atom reads
// directly: a sibling const(x) guard on such a column filters nothing
// the conjunction would keep. Under naive semantics a comparison on a
// marked null can hold, so every guard stays.

// strictCols returns the columns that are a direct operand of a
// comparison or LIKE among conjs.
func strictCols(conjs []algebra.Cond) []int {
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
			if col, ok := o.(algebra.Col); ok {
				cols = append(cols, col.Idx)
			}
		}
	}
	return cols
}

// dropGuards returns conjs without the const(x) conjuncts for which
// implied(x) holds, under SQL3VL; conjs itself when nothing is dropped
// or under naive semantics.
func (ev *Evaluator) dropGuards(conjs []algebra.Cond, implied func(col int) bool) []algebra.Cond {
	if ev.opts.Semantics != value.SQL3VL {
		return conjs
	}
	return withoutGuards(conjs, implied)
}

// withoutGuards is dropGuards under any semantics.
func withoutGuards(conjs []algebra.Cond, implied func(col int) bool) []algebra.Cond {
	var out []algebra.Cond
	for i, c := range conjs {
		if x, ok := guardCol(c); ok && implied(x) {
			if out == nil {
				out = append(make([]algebra.Cond, 0, len(conjs)-1), conjs[:i]...)
			}
			continue
		}
		if out != nil {
			out = append(out, c)
		}
	}
	if out == nil {
		return conjs
	}
	return out
}
