package plan

import (
	"math"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/stats"
)

// defaultRows is the cardinality assumed for a relation with no
// statistics.
const defaultRows = 1000.0

// estimate is a per-node cardinality and cumulative cost estimate.
// Costs are in the evaluator's cost units (elementary row operations);
// every formula adds a node's own work to the sum of its children's
// costs, so AuditCost's monotonicity invariants hold by construction.
type estimate struct {
	rows, cost float64
}

// estimate costs e bottom-up from the statistics snapshot.
func (o *optimizer) estimate(e algebra.Expr) estimate {
	switch n := e.(type) {
	case algebra.Base:
		rows := defaultRows
		if o.st != nil {
			if ts := o.st.Table(strings.ToLower(n.Name)); ts != nil {
				rows = float64(ts.Rows)
			}
		}
		return estimate{rows: rows, cost: rows + 1}
	case algebra.Select:
		if isProductChain(n.Child) {
			return o.joinBlockEstimate(n)
		}
		child := o.estimate(n.Child)
		rows := child.rows * o.selectivity(n.Cond, o.colInfo(n.Child))
		if _, isBase := n.Child.(algebra.Base); isBase {
			if read, _, ok := o.nullRead(n.Child, algebra.NullScans(n.Cond), 0); ok {
				child = read
			}
		}
		return estimate{rows: rows, cost: child.cost + child.rows + 1}
	case algebra.Project:
		child := o.estimate(n.Child)
		return estimate{rows: child.rows, cost: child.cost + child.rows + 1}
	case algebra.Product:
		l, r := o.estimate(n.L), o.estimate(n.R)
		rows := l.rows * r.rows
		return estimate{rows: rows, cost: l.cost + r.cost + rows + 1}
	case algebra.Union:
		l, r := o.estimate(n.L), o.estimate(n.R)
		return estimate{rows: l.rows + r.rows, cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.Intersect:
		l, r := o.estimate(n.L), o.estimate(n.R)
		return estimate{rows: 0.5 * math.Min(l.rows, r.rows), cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.Diff:
		l, r := o.estimate(n.L), o.estimate(n.R)
		return estimate{rows: 0.5 * l.rows, cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.SemiJoin:
		l, r := o.estimate(n.L), o.estimate(n.R)
		rows := 0.5 * l.rows
		var work float64
		switch semiStrategy(n) {
		case "short-circuit":
			if skipsLeft(n, r.rows) {
				return estimate{rows: 0, cost: r.cost + r.rows + 1}
			}
			work = r.rows
		case "nested-loop":
			// No hash key and no unification edge: the quadratic probe.
			work = l.rows * r.rows
		case "wild-hash":
			// The Section 7 shape, `A = B OR B IS NULL`: the executor
			// indexes the build side on the edge's column.
			_, bCol, _ := eval.SpanningUnifyEdge(nnf(n.Cond), n.L.Arity())
			d, nullRate, ok := o.colInfo(n.R)(bCol)
			if !ok {
				d, nullRate = math.Max(1, 0.1*r.rows), 0.1
			}
			work = wildHashWork(l.rows, r.rows, d, nullRate)
		default: // hash
			work = l.rows + r.rows
		}
		return estimate{rows: rows, cost: l.cost + r.cost + work + 1}
	case algebra.UnifySemi:
		// R ⋉⇑ S on the full-row wild-bucket index: a build row is wild
		// when any of its columns is null, its bucket otherwise holds
		// its duplicates; a probe row with a null scans the build side.
		l, r := o.estimate(n.L), o.estimate(n.R)
		work := wildHashWork(l.rows, r.rows, r.rows, o.anyNullRate(n.R)) +
			o.anyNullRate(n.L)*l.rows*r.rows
		return estimate{rows: 0.5 * l.rows, cost: l.cost + r.cost + work + 1}
	case algebra.Distinct:
		child := o.estimate(n.Child)
		return estimate{rows: 0.9 * child.rows, cost: child.cost + child.rows + 1}
	case algebra.Division:
		l, r := o.estimate(n.L), o.estimate(n.R)
		return estimate{rows: l.rows / math.Max(r.rows, 1), cost: l.cost + r.cost + l.rows*r.rows + 1}
	case algebra.AdomPower:
		adom := defaultRows
		if o.st != nil {
			total := 0.0
			for _, ts := range o.st.Tables {
				total += float64(ts.Rows) * float64(len(ts.Cols))
			}
			if total > 0 {
				adom = total
			}
		}
		rows := math.Min(math.Pow(adom, float64(n.K)), 1e18)
		return estimate{rows: rows, cost: rows + 1}
	case algebra.GroupBy:
		child := o.estimate(n.Child)
		rows := math.Max(1, 0.1*child.rows)
		if len(n.Keys) == 0 {
			rows = 1
		}
		return estimate{rows: rows, cost: child.cost + child.rows + rows + 1}
	case algebra.Sort:
		child := o.estimate(n.Child)
		return estimate{rows: child.rows, cost: child.cost + child.rows*math.Log2(child.rows+2) + 1}
	case algebra.Limit:
		child := o.estimate(n.Child)
		return estimate{rows: math.Min(child.rows, float64(n.N)), cost: child.cost + child.rows + 1}
	default:
		return estimate{rows: defaultRows, cost: defaultRows + 1}
	}
}

// skipsLeft reports whether sj, a short-circuit antijoin whose subquery
// is estimated at rRows rows, expects a witness, which empties it before
// L runs.
func skipsLeft(sj algebra.SemiJoin, rRows float64) bool {
	return sj.Anti && rRows >= 1
}

// nullRead prices reading a stored relation e under a selection whose
// null-test groups (algebra.NullScans) are groups, in columns where e's
// start at off: of the groups within e, the one with the fewest null
// counts, summed over a disjunction. It returns the read and the group
// in the selection's columns; ok is false for a full scan.
func (o *optimizer) nullRead(e algebra.Expr, groups [][]int, off int) (read estimate, group []int, ok bool) {
	b, isBase := e.(algebra.Base)
	if !isBase || len(groups) == 0 {
		return estimate{}, nil, false
	}
	var ts *stats.TableStats
	if o.st != nil {
		ts = o.st.Table(strings.ToLower(b.Name))
	}
	total := o.estimate(b).rows
	for _, g := range groups {
		n, within := 0.0, true
		for _, col := range g {
			col -= off
			within = within && col >= 0 && col < b.Arity()
			if ts != nil && within && col < len(ts.Cols) {
				n += ts.NullRate(col) * total
			} else {
				n += 0.1 * total
			}
		}
		if within && (!ok || n < read.rows) {
			read, group, ok = estimate{rows: n, cost: n + 1}, g, true
		}
	}
	return read, group, ok
}

// wildHashWork prices a wild-bucket index: one unit per build row, then
// per probe the lookup, the key's bucket (rows/distinct) and the wild
// list (nullRate × rows).
func wildHashWork(probes, rows, distinct, nullRate float64) float64 {
	return rows + probes*(1+rows/math.Max(distinct, 1)+nullRate*rows)
}

// anyNullRate estimates the fraction of e's rows holding a null in any
// column, assuming independent columns.
func (o *optimizer) anyNullRate(e algebra.Expr) float64 {
	info := o.colInfo(e)
	free := 1.0
	for col := 0; col < e.Arity(); col++ {
		if _, rate, ok := info(col); ok {
			free *= 1 - rate
		}
	}
	return 1 - free
}

// joinBlockEstimate costs σ_cond(leaf₀ × …): the runtime plans this as
// a greedy join over the condition's edges, so the cost is linear in the
// leaves where hash edges connect them — plus whatever its other steps
// cost (unhashedSteps) where they do not — and the output is discounted
// by the condition's selectivity.
func (o *optimizer) joinBlockEstimate(s algebra.Select) estimate {
	leaves := flattenProduct(s.Child)
	groups := algebra.NullScans(s.Cond)
	rows, cost, off := 1.0, 1.0, 0
	for _, leaf := range leaves {
		le := o.estimate(leaf)
		rows *= le.rows
		read := le
		if r, _, ok := o.nullRead(leaf, groups, off); ok {
			read = r
		}
		cost += read.cost + read.rows
		off += leaf.Arity()
	}
	info := o.colInfo(s.Child)
	rows *= o.selectivity(s.Cond, info)
	if !hashConnected(leaves, s.Cond) {
		cost += o.unhashedSteps(leaves, s.Cond, info)
	}
	return estimate{rows: rows, cost: cost + rows}
}

// hashConnected reports whether cond's pure column equalities connect
// all the leaves of a join block. The greedy order takes a hash edge
// whenever one leaves the joined set, so a connected block is hash joins
// throughout — the common case, answered here without classifying the
// condition (estimates are recomputed at every level of the plan tree).
func hashConnected(leaves []algebra.Expr, cond algebra.Cond) bool {
	if !algebra.NNFIsIdentity(cond) {
		return false
	}
	leafOf := func(col int) int {
		for i, leaf := range leaves {
			a := leaf.Arity()
			if col < a {
				return i
			}
			col -= a
		}
		return -1
	}
	var buf [8]int // union-find over the leaves
	root := buf[:]
	if len(leaves) > len(buf) {
		root = make([]int, len(leaves))
	}
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			i = root[i]
		}
		return i
	}
	parts := len(leaves)
	for _, c := range algebra.Conjuncts(cond) {
		cmp, ok := c.(algebra.Cmp)
		if !ok || cmp.Op != algebra.EQ {
			continue
		}
		l, lok := cmp.L.(algebra.Col)
		r, rok := cmp.R.(algebra.Col)
		if !lok || !rok {
			continue
		}
		if a, b := find(leafOf(l.Idx)), find(leafOf(r.Idx)); a != b {
			root[a] = b
			parts--
		}
	}
	return parts == 1
}

// unhashedSteps prices the steps of a join block that are not hash
// joins, along the order the runtime will take (eval.JoinBlock.Order,
// from estimated leaf sizes): a wild-bucket index where only a
// unification edge connects the next leaf, |cur|·|leaf| twice over — the
// product and the residual filter behind it — for a Cartesian step.
func (o *optimizer) unhashedSteps(leaves []algebra.Expr, cond algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	jb := eval.ClassifyJoinBlock(arities(leaves), cond)
	leafRows := make([]float64, len(leaves))
	for i, leaf := range leaves {
		leafRows[i] = o.estimate(leaf).rows * o.selectivity(algebra.NewAnd(jb.Singles[i]...), info)
	}
	cur, extra := 0.0, 0.0
	for _, st := range jb.Order(func(leaf int) float64 { return leafRows[leaf] }) {
		lr := leafRows[st.Leaf]
		switch st.Kind {
		case eval.JoinStart:
			cur = lr
			continue
		case eval.JoinHash:
			// linear in the leaves: priced by the caller's per-leaf terms
		case eval.JoinWildHash:
			d, nullRate, ok := info(st.BuildCol)
			if !ok {
				d, nullRate = math.Max(1, 0.1*lr), 0.1
			}
			extra += wildHashWork(cur, lr, d, nullRate)
		case eval.JoinProduct:
			extra += 2 * cur * lr
		}
		cur *= lr * o.selectivity(algebra.NewAnd(jb.Conds(st)...), info)
	}
	return extra
}

// arities returns the leaves' arities.
func arities(leaves []algebra.Expr) []int {
	out := make([]int, len(leaves))
	for i, leaf := range leaves {
		out[i] = leaf.Arity()
	}
	return out
}

// flattenProduct mirrors the evaluator's product-chain flattening.
func flattenProduct(e algebra.Expr) []algebra.Expr {
	if p, ok := e.(algebra.Product); ok {
		return append(flattenProduct(p.L), flattenProduct(p.R)...)
	}
	return []algebra.Expr{e}
}

// nnf returns a condition in NNF, as the evaluator sees it.
func nnf(c algebra.Cond) algebra.Cond {
	if algebra.NNFIsIdentity(c) {
		return c
	}
	return algebra.NNF(c)
}

// semiStrategy names the strategy the evaluator will pick for a
// semijoin: "short-circuit" (uncorrelated), "hash" (extractable
// equality keys), "wild-hash" (no key, but a unification edge `a = b OR
// … IS NULL` to index) or "nested-loop".
func semiStrategy(sj algebra.SemiJoin) string {
	cond := nnf(sj.Cond)
	if !algebra.UsesColBelow(cond, sj.L.Arity()) {
		return "short-circuit"
	}
	if l, _, _ := eval.SemiKeys(cond, sj.L.Arity()); len(l) > 0 {
		return "hash"
	}
	if _, _, ok := eval.SpanningUnifyEdge(cond, sj.L.Arity()); ok {
		return "wild-hash"
	}
	return "nested-loop"
}

// colInfo returns the selectivity oracle for conditions over e's
// output columns: per-column distinct counts and null rates from the
// statistics of the base column each output column traces to.
func (o *optimizer) colInfo(e algebra.Expr) func(col int) (distinct, nullRate float64, ok bool) {
	return func(col int) (float64, float64, bool) {
		ts, bcol, found := originStats(e, o.st, col)
		if !found {
			return 0, 0, false
		}
		c := ts.Cols[bcol]
		d := float64(c.Distinct)
		if d < 1 {
			d = 1
		}
		return d, ts.NullRate(bcol), true
	}
}

// selectivity estimates the fraction of rows a condition keeps, using
// textbook independence assumptions refined with distinct counts and
// null rates where the operand columns trace to statistics.
func (o *optimizer) selectivity(c algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	s := o.rawSelectivity(c, info)
	return math.Min(1, math.Max(0, s))
}

func (o *optimizer) rawSelectivity(c algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	switch c := c.(type) {
	case algebra.TrueCond:
		return 1
	case algebra.FalseCond:
		return 0
	case algebra.And:
		s := 1.0
		for _, sub := range c.Conds {
			s *= o.selectivity(sub, info)
		}
		return s
	case algebra.Or:
		miss := 1.0
		for _, sub := range c.Conds {
			miss *= 1 - o.selectivity(sub, info)
		}
		return 1 - miss
	case algebra.Not:
		return 1 - o.selectivity(c.C, info)
	case algebra.Cmp:
		lc, lIsCol := c.L.(algebra.Col)
		rc, rIsCol := c.R.(algebra.Col)
		switch c.Op {
		case algebra.EQ:
			switch {
			case lIsCol && rIsCol:
				dl, _, lok := info(lc.Idx)
				dr, _, rok := info(rc.Idx)
				switch {
				case lok && rok:
					return 1 / math.Max(dl, dr)
				case lok:
					return 1 / dl
				case rok:
					return 1 / dr
				}
				return 0.1
			case lIsCol:
				if d, _, ok := info(lc.Idx); ok {
					return 1 / d
				}
				return 0.1
			case rIsCol:
				if d, _, ok := info(rc.Idx); ok {
					return 1 / d
				}
				return 0.1
			}
			return 0.1
		case algebra.NE:
			return 0.9
		case algebra.LT, algebra.LE, algebra.GT, algebra.GE:
			return 1.0 / 3
		}
		return 0.5
	case algebra.Like:
		if c.Negated {
			return 0.75
		}
		return 0.25
	case algebra.NullTest:
		rate := 0.1
		if col, ok := c.Operand.(algebra.Col); ok {
			if _, r, ok := info(col.Idx); ok {
				rate = r
			}
		}
		if c.Negated {
			return 1 - rate
		}
		return rate
	default:
		return 0.5
	}
}
