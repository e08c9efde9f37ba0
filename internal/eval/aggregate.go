package eval

import (
	"fmt"
	"sort"

	"certsql/internal/algebra"
	"certsql/internal/table"
	"certsql/internal/value"
)

// This file executes the decision-support operators: grouping with
// SQL's aggregate semantics (nulls ignored; AVG/SUM/MIN/MAX over an
// empty input are NULL, COUNT is 0) and stable sorting with NULLS LAST.
// LIMIT streams (limitIter).

// evalGroupBy executes γ_keys;aggs(child).
func (ev *Evaluator) evalGroupBy(e algebra.GroupBy) (*table.Table, error) {
	child, err := ev.evalChild(e.Child)
	if err != nil {
		return nil, err
	}
	type group struct {
		rep  table.Row
		accs []aggAcc
	}
	newAccs := func() []aggAcc {
		accs := make([]aggAcc, len(e.Aggs))
		for i, spec := range e.Aggs {
			accs[i] = aggAcc{spec: spec}
		}
		return accs
	}
	keys := table.NewIndex(0)
	var groups []group // in first-seen order, which Insert numbers them by
	for _, row := range child.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("group-by"); err != nil {
			return nil, err
		}
		gi, fresh := keys.Insert(row, e.Keys)
		if fresh {
			groups = append(groups, group{rep: row, accs: newAccs()})
		}
		g := &groups[gi]
		for i := range g.accs {
			g.accs[i].add(row)
		}
	}
	// SQL: a global aggregate (no keys) yields one row even when the
	// input is empty.
	if len(e.Keys) == 0 && len(groups) == 0 {
		groups = append(groups, group{accs: newAccs()})
	}
	out := table.New(e.Arity())
	for _, g := range groups {
		row := make(table.Row, 0, e.Arity())
		for _, kc := range e.Keys {
			row = append(row, g.rep[kc])
		}
		for i := range g.accs {
			row = append(row, g.accs[i].result(ev.freshAggNull))
		}
		out.Append(row)
	}
	ev.note("group by %v -> %d groups", e.Keys, out.Len())
	return out, nil
}

// aggAcc accumulates one aggregate over one group.
type aggAcc struct {
	spec  algebra.AggSpec
	count int64
	sum   float64
	min   value.Value
	max   value.Value
	have  bool
}

func (a *aggAcc) add(row table.Row) {
	if a.spec.Col < 0 { // COUNT(*)
		a.count++
		return
	}
	v := row[a.spec.Col]
	if v.IsNull() {
		return
	}
	a.count++
	switch a.spec.Func {
	case algebra.AggCount:
		// already tallied above; COUNT keeps no running value
	case algebra.AggSum, algebra.AggAvg:
		a.sum += v.AsFloat()
	case algebra.AggMin:
		if !a.have {
			a.min = v
		} else if c, ok := value.Compare(v, a.min); ok && c < 0 {
			a.min = v
		}
	case algebra.AggMax:
		if !a.have {
			a.max = v
		} else if c, ok := value.Compare(v, a.max); ok && c > 0 {
			a.max = v
		}
	}
	a.have = true
}

// result finalizes the aggregate. SUM/AVG/MIN/MAX over an empty group
// are NULL; each such NULL is minted by fresh so that two independent
// aggregate NULLs carry distinct marks and never spuriously unify or
// compare equal under naive marked-null semantics.
func (a *aggAcc) result(fresh func() value.Value) value.Value {
	switch a.spec.Func {
	case algebra.AggCount:
		return value.Int(a.count)
	case algebra.AggSum:
		if !a.have {
			return fresh()
		}
		return value.Float(a.sum)
	case algebra.AggAvg:
		if !a.have {
			return fresh()
		}
		return value.Float(a.sum / float64(a.count))
	case algebra.AggMin:
		if !a.have {
			return fresh()
		}
		return a.min
	case algebra.AggMax:
		if !a.have {
			return fresh()
		}
		return a.max
	default:
		return fresh()
	}
}

// evalSort executes a stable multi-key sort. Ascending keys put nulls
// last; descending keys reverse the whole order (nulls first), per the
// common SQL default.
func (ev *Evaluator) evalSort(e algebra.Sort) (*table.Table, error) {
	child, err := ev.evalChild(e.Child)
	if err != nil {
		return nil, err
	}
	rows := make([]table.Row, child.Len())
	copy(rows, child.Rows())
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range e.Keys {
			c := sortOrder(rows[i][k.Col], rows[j][k.Col])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if err := ev.charge("sort", int64(len(rows))); err != nil {
		return nil, err
	}
	ev.note("sort %d rows", len(rows))
	return table.FromRows(child.Arity(), rows), nil
}

// sortOrder compares for ORDER BY: unlike the naive-semantics total
// order, all nulls are peers (SQL does not expose marks), sorting after
// every constant.
func sortOrder(a, b value.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	default:
		return value.TotalOrder(a, b)
	}
}

// errNegativeLimit rejects a negative LIMIT.
func errNegativeLimit(n int) error { return fmt.Errorf("eval: negative LIMIT %d", n) }
