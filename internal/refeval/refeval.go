// Package refeval is the definitional evaluator, the one oracle the
// engine is checked against: difftest's reference invariant, and every
// valuation v(D) of brute-force ground truth in internal/certain.
//
// It computes an algebra.Expr by the textbook definition of each
// operator over lists of rows — in the style of "A Formalisation of SQL
// with Nulls" (Ricciotti & Cheney) and Franconi & Tessaris's null-aware
// relational algebra — and shares no code with internal/eval: product is
// a nested loop, every join, semijoin and antijoin is product-then-filter
// under the full three-valued condition, and set operators, grouping and
// division compare rows pairwise. No hashing, no view cache, no planner,
// no parallelism, no governor. What it does share with the engine is the
// value layer (comparison atoms, LIKE, the unification test), which has
// its own property tests; imports_test.go keeps it that way.
//
// It answers a query only up to what the algebra fixes: rows as a
// multiset, never their order (Sort is the identity here, a plan with a
// Limit is refused), and the marks of the nulls it mints for empty
// aggregates are its own — SameMultiset erases minted (negative) marks
// on both sides before comparing.
package refeval

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"certsql/internal/algebra"
	"certsql/internal/table"
	"certsql/internal/tvl"
	"certsql/internal/value"
)

var (
	// ErrWork reports a case beyond the evaluator's work cap; callers
	// record a skip, never a failure.
	ErrWork = errors.New("work cap exceeded")
	// ErrLimit refuses plans whose answer depends on a row order the
	// algebra does not fix.
	ErrLimit = errors.New("LIMIT depends on row order")
)

// workCap bounds the rows an evaluation may touch (pairs formed,
// conditions evaluated, rows compared). Generated cases need a few
// thousand; the cap only stops runaway products.
const workCap = 1 << 22

// refEval evaluates one expression by definition.
type refEval struct {
	db      *table.Database
	sem     value.Semantics
	work    int
	minted  int64
	scalars map[string]value.Value
}

// refAbort carries an evaluation-stopping error out of the recursion;
// Rows recovers it. Everything else that panics is a bug and
// propagates.
type refAbort struct{ err error }

// Rows returns the rows of e over db under sem, as a multiset. It fails
// with ErrWork beyond the work cap and with ErrLimit on a plan with a
// Limit.
func Rows(db *table.Database, sem value.Semantics, e algebra.Expr) (rows []table.Row, err error) {
	r := &refEval{db: db, sem: sem, scalars: map[string]value.Value{}}
	defer func() {
		if v := recover(); v != nil {
			abort, ok := v.(refAbort)
			if !ok {
				panic(v)
			}
			rows, err = nil, abort.err
		}
	}()
	return r.eval(e), nil
}

func (r *refEval) spend(n int) {
	if r.work += n; r.work > workCap {
		panic(refAbort{ErrWork})
	}
}

// fresh mints a null for an empty SUM/AVG/MIN/MAX: SQL's aggregate NULL
// is a new unknown per occurrence. Negative marks are disjoint from the
// database's.
func (r *refEval) fresh() value.Value {
	r.minted++
	return value.Null(-r.minted)
}

func (r *refEval) eval(e algebra.Expr) []table.Row {
	switch e := e.(type) {
	case algebra.Base:
		t, err := r.db.Table(e.Name)
		if err != nil {
			panic(refAbort{err})
		}
		r.spend(t.Len())
		return t.Rows()

	case algebra.AdomPower:
		var dom []table.Row
		for _, v := range r.db.ActiveDomain() {
			dom = append(dom, table.Row{v})
		}
		out := []table.Row{{}}
		for i := 0; i < e.K; i++ {
			r.spend(len(out) * len(dom))
			out = r.combine([][]table.Row{out, dom}, i+1, nil, false)
		}
		return out

	case algebra.Select:
		if p, ok := e.Child.(algebra.Product); ok {
			factors, n := r.factors(p)
			r.spend(n) // the filter over the product tests every combination
			return r.combine(factors, p.Arity(), e.Cond, false)
		}
		return r.filter(r.eval(e.Child), e.Cond)

	case algebra.Project:
		return project(r.eval(e.Child), e.Cols)

	case algebra.Product:
		factors, _ := r.factors(e)
		return r.combine(factors, e.Arity(), nil, false)

	case algebra.Union:
		return r.distinct(append(append([]table.Row{}, r.eval(e.L)...), r.eval(e.R)...))

	case algebra.Intersect:
		right := r.eval(e.R)
		return r.distinct(r.keep(r.eval(e.L), func(row table.Row) bool { return r.member(right, row) }))

	case algebra.Diff:
		right := r.eval(e.R)
		return r.distinct(r.keep(r.eval(e.L), func(row table.Row) bool { return !r.member(right, row) }))

	case algebra.SemiJoin:
		// L ⋉θ R = { l ∈ L | σθ({l} × R) ≠ ∅ }; the antijoin keeps the rest.
		right := r.eval(e.R)
		return r.keep(r.eval(e.L), func(l table.Row) bool {
			r.spend(2 * len(right)) // the whole product {l} × R and the filter over it
			return (len(r.combine([][]table.Row{{l}, right}, e.L.Arity()+e.R.Arity(), e.Cond, true)) > 0) != e.Anti
		})

	case algebra.UnifySemi:
		right := r.eval(e.R)
		return r.keep(r.eval(e.L), func(l table.Row) bool {
			unifies := false
			for _, s := range right {
				r.spend(1)
				unifies = unifies || value.UnifyTuples(l, s)
			}
			return unifies != e.Anti
		})

	case algebra.Distinct:
		return r.distinct(r.eval(e.Child))

	case algebra.Division:
		// L ÷ R = { x̄ | ∀ s̄ ∈ R: x̄·s̄ ∈ L } over the distinct prefixes of L.
		left, right := r.eval(e.L), r.eval(e.R)
		prefix := make([]int, e.Arity())
		for i := range prefix {
			prefix[i] = i
		}
		return r.keep(r.distinct(project(left, prefix)), func(x table.Row) bool {
			for _, s := range right {
				if !r.member(left, append(append(table.Row{}, x...), s...)) {
					return false
				}
			}
			return true
		})

	case algebra.GroupBy:
		child := r.eval(e.Child)
		keys := r.distinct(project(child, e.Keys)) // one group per distinct key tuple
		if len(e.Keys) == 0 && len(keys) == 0 {
			keys = []table.Row{{}} // a global aggregate over no rows is still one row
		}
		var out []table.Row
		for _, k := range keys {
			group := r.keep(child, func(row table.Row) bool { return sameRow(pick(row, e.Keys), k) })
			row := append(table.Row{}, k...)
			for _, a := range e.Aggs {
				row = append(row, r.aggregate(a.Func, a.Col, group))
			}
			out = append(out, row)
		}
		return out

	case algebra.Sort:
		return r.eval(e.Child) // a multiset has no order

	case algebra.Limit:
		panic(refAbort{ErrLimit})

	default:
		panic(refAbort{fmt.Errorf("unknown expression %T", e)})
	}
}

func pick(row table.Row, cols []int) table.Row {
	out := make(table.Row, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

func project(rows []table.Row, cols []int) []table.Row {
	out := make([]table.Row, len(rows))
	for i, row := range rows {
		out[i] = pick(row, cols)
	}
	return out
}

// factors evaluates the operands of a product tree left to right and
// returns their rows with the size of the product, charging every
// product in the tree as if it were materialized.
func (r *refEval) factors(e algebra.Expr) ([][]table.Row, int) {
	p, ok := e.(algebra.Product)
	if !ok {
		rows := r.eval(e)
		return [][]table.Row{rows}, len(rows)
	}
	l, nl := r.factors(p.L)
	rr, nr := r.factors(p.R)
	r.spend(nl * nr)
	return append(l, rr...), nl * nr
}

// combine is σθ(F₁ × … × Fₙ), or the bare product when c is nil, as one
// nested loop over the factors: each combination is assembled in a
// reused buffer of the given width, θ is tested on it, and only the
// combinations it is true on are copied out, in the product's row order.
// With first set it stops at the first one kept.
func (r *refEval) combine(factors [][]table.Row, width int, c algebra.Cond, first bool) []table.Row {
	var out []table.Row
	var loop func(i int, prefix table.Row)
	loop = func(i int, prefix table.Row) {
		if i == len(factors) {
			if c == nil || r.truth(c, prefix) == tvl.True {
				out = append(out, slices.Clone(prefix))
			}
			return
		}
		for _, row := range factors[i] {
			if loop(i+1, append(prefix, row...)); first && len(out) > 0 {
				return
			}
		}
	}
	loop(0, make(table.Row, 0, width))
	return out
}

// filter is σ: the rows on which the condition is true — not false, not
// unknown.
func (r *refEval) filter(rows []table.Row, c algebra.Cond) []table.Row {
	return r.keep(rows, func(row table.Row) bool { return r.truth(c, row) == tvl.True })
}

func (r *refEval) keep(rows []table.Row, pred func(table.Row) bool) []table.Row {
	r.spend(len(rows))
	var out []table.Row
	for _, row := range rows {
		if pred(row) {
			out = append(out, row)
		}
	}
	return out
}

// sameRow is row identity: nulls are equal exactly when their marks
// are, constants when they compare equal — naive equality, column by
// column, whatever semantics the conditions run under.
func sameRow(a, b table.Row) bool {
	return slices.EqualFunc(a, b, func(x, y value.Value) bool { return value.Equal(value.Naive, x, y) == tvl.True })
}

func (r *refEval) member(rows []table.Row, row table.Row) bool {
	r.spend(len(rows))
	return slices.ContainsFunc(rows, func(other table.Row) bool { return sameRow(other, row) })
}

func (r *refEval) distinct(rows []table.Row) []table.Row {
	var out []table.Row
	for _, row := range rows {
		if !r.member(out, row) {
			out = append(out, row)
		}
	}
	return out
}

// aggregate applies SQL's aggregate definitions to column col of rows:
// COUNT(*) counts rows, every other aggregate ignores nulls, COUNT of
// nothing is 0 and SUM/AVG/MIN/MAX of nothing are NULL. SUM and AVG are
// computed in floating point, as the algebra specifies.
func (r *refEval) aggregate(fn algebra.AggFunc, col int, rows []table.Row) value.Value {
	var vals []value.Value
	for _, row := range rows {
		if col >= 0 && !row[col].IsNull() {
			vals = append(vals, row[col])
		}
	}
	switch {
	case fn == algebra.AggCount && col < 0:
		return value.Int(int64(len(rows)))
	case fn == algebra.AggCount:
		return value.Int(int64(len(vals)))
	case len(vals) == 0:
		return r.fresh()
	}
	switch fn {
	case algebra.AggSum, algebra.AggAvg:
		sum := 0.0
		for _, v := range vals {
			sum += v.AsFloat()
		}
		if fn == algebra.AggAvg {
			sum /= float64(len(vals))
		}
		return value.Float(sum)
	default: // AggMin, AggMax: the extreme among the mutually comparable values
		best := vals[0]
		for _, v := range vals {
			c, comparable := value.Compare(v, best)
			if comparable && (fn == algebra.AggMin && c < 0 || fn == algebra.AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
}

// truth is the three-valued (Kleene) truth value of c on row; under
// naive semantics the atoms never return unknown, so it is two-valued.
func (r *refEval) truth(c algebra.Cond, row table.Row) tvl.TV {
	switch c := c.(type) {
	case algebra.TrueCond:
		return tvl.True
	case algebra.FalseCond:
		return tvl.False
	case algebra.Cmp:
		a, b := r.operand(c.L, row), r.operand(c.R, row)
		switch op := c.Op; op {
		case algebra.EQ:
			return value.Equal(r.sem, a, b)
		case algebra.NE:
			return value.Equal(r.sem, a, b).Not()
		default: // the order comparisons: a below b satisfies < and ≤, a level with b ≤ and ≥, a above b > and ≥
			return value.OrderCmp(r.sem, a, b, func(k int) bool {
				return k < 0 && (op == algebra.LT || op == algebra.LE) ||
					k == 0 && (op == algebra.LE || op == algebra.GE) ||
					k > 0 && (op == algebra.GT || op == algebra.GE)
			})
		}
	case algebra.Like:
		t := value.Like(r.sem, r.operand(c.Operand, row), r.operand(c.Pattern, row))
		if c.Negated {
			t = t.Not()
		}
		return t
	case algebra.NullTest:
		t := tvl.FromBool(r.operand(c.Operand, row).IsNull())
		if c.Negated {
			t = t.Not()
		}
		return t
	case algebra.And:
		t := tvl.True
		for _, sub := range c.Conds {
			t = t.And(r.truth(sub, row))
		}
		return t
	case algebra.Or:
		t := tvl.False
		for _, sub := range c.Conds {
			t = t.Or(r.truth(sub, row))
		}
		return t
	case algebra.Not:
		return r.truth(c.C, row).Not()
	default:
		panic(refAbort{fmt.Errorf("unknown condition %T", c)})
	}
}

// operand resolves an operand on row. A scalar subquery is a constant
// of the query: one value per distinct subquery, however often it is
// mentioned.
func (r *refEval) operand(o algebra.Operand, row table.Row) value.Value {
	switch o := o.(type) {
	case algebra.Col:
		return row[o.Idx]
	case algebra.Lit:
		return o.Val
	case algebra.Scalar:
		key := o.String()
		v, ok := r.scalars[key]
		if !ok {
			v = r.aggregate(o.Agg, o.Col, r.eval(o.Sub))
			r.scalars[key] = v
		}
		return v
	default:
		panic(refAbort{fmt.Errorf("unknown operand %T", o)})
	}
}

// SameMultiset compares two row lists as multisets of rows, with marks
// minted during evaluation (negative) erased: those name "some fresh
// unknown", and each evaluator numbers its own.
func SameMultiset(a, b []table.Row) bool {
	return slices.Equal(multisetKeys(a), multisetKeys(b))
}

func multisetKeys(rows []table.Row) []string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		erased := append(table.Row{}, row...)
		for j, v := range erased {
			if v.IsNull() && v.NullID() < 0 {
				erased[j] = value.Null(0)
			}
		}
		keys[i] = value.RowKey(erased)
	}
	sort.Strings(keys)
	return keys
}
