package plan

import (
	"math"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
)

// defaultRows is the cardinality assumed for a relation with no data.
const defaultRows = 1000.0

// describer is the cost model and the EXPLAIN tree's builder. Its zero
// value prices with the data-free defaults Rewrite's gate decides with;
// given a database (Describe), it refines them with counts the tables
// hold exactly. drained holds the view keys drained so far while it
// describes a plan the view cache serves.
type describer struct {
	sch     *schema.Schema
	db      *table.Database
	drained map[string]bool
}

// table returns the stored relation name, or nil without data.
func (d *describer) table(name string) *table.Table {
	if d.db == nil {
		return nil
	}
	t, _ := d.db.Table(name)
	return t
}

// estimate is a per-node cardinality and cumulative cost estimate.
// Costs are in the evaluator's cost units (elementary row operations);
// every formula adds a node's own work to the sum of its children's
// costs, so AuditCost's monotonicity invariants hold by construction.
type estimate struct {
	rows, cost float64
}

// estimate costs e bottom-up.
func (d *describer) estimate(e algebra.Expr) estimate {
	switch n := e.(type) {
	case algebra.Base:
		rows := defaultRows
		if t := d.table(n.Name); t != nil {
			rows = float64(t.Len())
		}
		return estimate{rows: rows, cost: rows + 1}
	case algebra.Select:
		if isProductChain(n.Child) {
			return d.joinBlockEstimate(n)
		}
		child := d.estimate(n.Child)
		rows := child.rows * d.selectivity(n.Cond, d.colInfo(n.Child))
		if _, isBase := n.Child.(algebra.Base); isBase {
			if read, _, ok := d.nullRead(n.Child, algebra.NullScans(n.Cond), 0); ok {
				child = read
			}
		}
		return estimate{rows: rows, cost: child.cost + child.rows + 1}
	case algebra.Project:
		child := d.estimate(n.Child)
		return estimate{rows: child.rows, cost: child.cost + child.rows + 1}
	case algebra.Product:
		l, r := d.estimate(n.L), d.estimate(n.R)
		rows := l.rows * r.rows
		return estimate{rows: rows, cost: l.cost + r.cost + rows + 1}
	case algebra.Union:
		l, r := d.estimate(n.L), d.estimate(n.R)
		return estimate{rows: l.rows + r.rows, cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.Intersect:
		l, r := d.estimate(n.L), d.estimate(n.R)
		return estimate{rows: 0.5 * math.Min(l.rows, r.rows), cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.Diff:
		l, r := d.estimate(n.L), d.estimate(n.R)
		return estimate{rows: 0.5 * l.rows, cost: l.cost + r.cost + l.rows + r.rows + 1}
	case algebra.SemiJoin:
		l, r := d.estimate(n.L), d.estimate(n.R)
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
			work = indexedWork(l.rows, r.rows, d.colInfo(n.R), bCol)
		default: // hash
			work = l.rows + r.rows
		}
		return estimate{rows: rows, cost: l.cost + r.cost + work + 1}
	case algebra.UnifySemi:
		// R ⋉⇑ S on the full-row wild-bucket index: a build row is wild
		// when any of its columns is null, its bucket otherwise holds
		// its duplicates; a probe row with a null scans the build side.
		l, r := d.estimate(n.L), d.estimate(n.R)
		work := wildHashWork(l.rows, r.rows, r.rows, d.anyNullRate(n.R)) +
			d.anyNullRate(n.L)*l.rows*r.rows
		return estimate{rows: 0.5 * l.rows, cost: l.cost + r.cost + work + 1}
	case algebra.Distinct:
		child := d.estimate(n.Child)
		return estimate{rows: 0.9 * child.rows, cost: child.cost + child.rows + 1}
	case algebra.Division:
		l, r := d.estimate(n.L), d.estimate(n.R)
		return estimate{rows: l.rows / math.Max(r.rows, 1), cost: l.cost + r.cost + l.rows*r.rows + 1}
	case algebra.AdomPower:
		adom := defaultRows
		if d.db != nil {
			total := 0.0
			for _, name := range d.db.Schema.Names() {
				t := d.db.MustTable(name)
				total += float64(t.Len()) * float64(t.Arity())
			}
			if total > 0 {
				adom = total
			}
		}
		rows := math.Min(math.Pow(adom, float64(n.K)), 1e18)
		return estimate{rows: rows, cost: rows + 1}
	case algebra.GroupBy:
		child := d.estimate(n.Child)
		rows := math.Max(1, 0.1*child.rows)
		if len(n.Keys) == 0 {
			rows = 1
		}
		return estimate{rows: rows, cost: child.cost + child.rows + rows + 1}
	case algebra.Sort:
		child := d.estimate(n.Child)
		return estimate{rows: child.rows, cost: child.cost + child.rows*math.Log2(child.rows+2) + 1}
	case algebra.Limit:
		child := d.estimate(n.Child)
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
// start at off: of the groups within e, the one whose null lists give
// the fewest rows, as the executor picks it (eval.CountNulls with data,
// a default rate per column without). It returns the read and the group
// in the selection's columns; ok is false for a full scan.
func (d *describer) nullRead(e algebra.Expr, groups [][]int, off int) (read estimate, group []int, ok bool) {
	b, isBase := e.(algebra.Base)
	if !isBase || len(groups) == 0 {
		return estimate{}, nil, false
	}
	t := d.table(b.Name)
	total := d.estimate(b).rows
	for _, g := range groups {
		n, within := 0.0, true
		for _, col := range g {
			within = within && col >= off && col-off < b.Arity()
			n += 0.1 * total
		}
		if t != nil && within {
			local := make([]int, len(g))
			for i, col := range g {
				local[i] = col - off
			}
			n = float64(eval.CountNulls(t, local))
		}
		if within && (!ok || n < read.rows) {
			read, group, ok = estimate{rows: n, cost: n + 1}, g, true
		}
	}
	return read, group, ok
}

// indexedWork prices a wild-bucket index over rows rows keyed on column
// col (wildHashWork), with info's distinct count and null rate, else a
// tenth of the rows and a rate of 0.1.
func indexedWork(probes, rows float64, info func(int) (float64, float64, bool), col int) float64 {
	distinct, nullRate, ok := info(col)
	if !ok {
		nullRate = 0.1
	}
	if distinct == 0 {
		distinct = math.Max(1, 0.1*rows)
	}
	return wildHashWork(probes, rows, distinct, nullRate)
}

// wildHashWork prices a wild-bucket index: one unit per build row, then
// per probe the lookup, the key's bucket (rows/distinct) and the wild
// list (nullRate × rows).
func wildHashWork(probes, rows, distinct, nullRate float64) float64 {
	return rows + probes*(1+rows/math.Max(distinct, 1)+nullRate*rows)
}

// anyNullRate estimates the fraction of e's rows holding a null in any
// column, assuming independent columns.
func (d *describer) anyNullRate(e algebra.Expr) float64 {
	info := d.colInfo(e)
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
func (d *describer) joinBlockEstimate(s algebra.Select) estimate {
	leaves := algebra.Leaves(s.Child)
	groups := algebra.NullScans(s.Cond)
	rows, cost, off := 1.0, 1.0, 0
	for _, leaf := range leaves {
		le := d.estimate(leaf)
		rows *= le.rows
		read := le
		if r, _, ok := d.nullRead(leaf, groups, off); ok {
			read = r
		}
		cost += read.cost + read.rows
		off += leaf.Arity()
	}
	info := d.colInfo(s.Child)
	rows *= d.selectivity(s.Cond, info)
	if !hashConnected(leaves, s.Cond) {
		cost += d.unhashedSteps(leaves, s.Cond, info)
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
func (d *describer) unhashedSteps(leaves []algebra.Expr, cond algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	jb := eval.ClassifyJoinBlock(arities(leaves), cond)
	leafRows := make([]float64, len(leaves))
	for i, leaf := range leaves {
		leafRows[i] = d.estimate(leaf).rows * d.selectivity(algebra.NewAnd(jb.Singles[i]...), info)
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
			extra += indexedWork(cur, lr, info, st.BuildCol)
		case eval.JoinProduct:
			extra += 2 * cur * lr
		}
		cur *= lr * d.selectivity(algebra.NewAnd(jb.Conds(st)...), info)
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
// output columns, from the counts of the stored column each traces to
// (colOrigin): its null rate, exact from the null lists, and its
// distinct count when it is a single-column primary key (0, unknown,
// otherwise). ok is false without data or origin.
func (d *describer) colInfo(e algebra.Expr) func(col int) (distinct, nullRate float64, ok bool) {
	return func(col int) (float64, float64, bool) {
		name, bcol, found := colOrigin(e, col)
		t := d.table(name)
		if !found || t == nil {
			return 0, 0, false
		}
		rel, _ := d.sch.Relation(name)
		rows, distinct, nullRate := float64(t.Len()), 0.0, 0.0
		if len(rel.Key) == 1 && rel.Key[0] == bcol {
			distinct = rows
		}
		if rows > 0 && rel.Attrs[bcol].Nullable {
			_, pos := t.NullRows(bcol)
			nullRate = float64(len(pos)) / rows
		}
		return distinct, nullRate, true
	}
}

// selectivity estimates the fraction of rows a condition keeps, using
// textbook independence assumptions refined with distinct counts and
// null rates where colInfo knows them.
func (d *describer) selectivity(c algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	s := d.rawSelectivity(c, info)
	return math.Min(1, math.Max(0, s))
}

func (d *describer) rawSelectivity(c algebra.Cond, info func(int) (float64, float64, bool)) float64 {
	switch c := c.(type) {
	case algebra.TrueCond:
		return 1
	case algebra.FalseCond:
		return 0
	case algebra.And:
		s := 1.0
		for _, sub := range c.Conds {
			s *= d.selectivity(sub, info)
		}
		return s
	case algebra.Or:
		miss := 1.0
		for _, sub := range c.Conds {
			miss *= 1 - d.selectivity(sub, info)
		}
		return 1 - miss
	case algebra.Not:
		return 1 - d.selectivity(c.C, info)
	case algebra.Cmp:
		lc, lIsCol := c.L.(algebra.Col)
		rc, rIsCol := c.R.(algebra.Col)
		switch c.Op {
		case algebra.EQ:
			switch {
			case lIsCol && rIsCol:
				dl, _, _ := info(lc.Idx)
				dr, _, _ := info(rc.Idx)
				if d := math.Max(dl, dr); d > 0 {
					return 1 / d
				}
			case lIsCol:
				if d, _, _ := info(lc.Idx); d > 0 {
					return 1 / d
				}
			case rIsCol:
				if d, _, _ := info(rc.Idx); d > 0 {
					return 1 / d
				}
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
