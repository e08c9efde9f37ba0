package eval

import (
	"fmt"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/shard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// flattenProduct returns the leaves of a left-to-right product chain, or
// a single-element slice when e is not a product.
func flattenProduct(e algebra.Expr) []algebra.Expr {
	if p, ok := e.(algebra.Product); ok {
		return append(flattenProduct(p.L), flattenProduct(p.R)...)
	}
	return []algebra.Expr{e}
}

// planJoinBlock plans and executes σ_cond(leaf₀ × leaf₁ × …) — the
// shape SELECT-FROM-WHERE blocks compile to — greedily, in the order
// JoinBlock.Order derives from the filtered leaf sizes: the condition's
// equality conjuncts become hash equi-joins instead of a materialized
// product. The output preserves the canonical column order of the
// product.
func (ev *Evaluator) planJoinBlock(leaves []algebra.Expr, cond algebra.Cond) (*table.Table, error) {
	n := len(leaves)
	arities := make([]int, n)
	for i, l := range leaves {
		arities[i] = l.Arity()
	}
	jb := ClassifyJoinBlock(arities, cond)
	offsets, totalArity := jb.offsets, jb.offsets[n]

	// Evaluate and filter each leaf. Filtered leaves are wrapped in a
	// Select node and evaluated through the subplan cache, so the same
	// filtered relation appearing in several NOT EXISTS branches is
	// computed once — the executor-level counterpart of the WITH views
	// the paper introduces for Q⁺4.
	filtered := make([]*table.Table, n)
	for i, leaf := range leaves {
		src := leaf
		if len(jb.Singles[i]) > 0 {
			remap := func(col int) int { return col - offsets[i] }
			src = algebra.Select{Child: leaf, Cond: algebra.MapCols(algebra.NewAnd(jb.Singles[i]...), remap)}
		}
		t, err := ev.evalChild(src)
		if err != nil {
			return nil, err
		}
		filtered[i] = t
	}
	steps := jb.Order(func(leaf int) float64 { return float64(filtered[leaf].Len()) })

	cur := filtered[steps[0].Leaf]
	// pos maps canonical column -> position in cur (-1 when absent).
	pos := make([]int, totalArity)
	for i := range pos {
		pos[i] = -1
	}
	appliedEdge := make([]bool, len(jb.edges))
	appliedRes := make([]bool, len(jb.residuals))
	// ready reports whether every column of c is in cur or in leaf
	// (-1: in cur alone).
	ready := func(c algebra.Cond, leaf int) bool {
		for _, col := range algebra.ColsUsed(c) {
			if pos[col] < 0 && jb.leafOf(col) != leaf {
				return false
			}
		}
		return true
	}
	applyResiduals := func() error {
		for ri, c := range jb.residuals {
			if appliedRes[ri] || !ready(c, -1) {
				continue
			}
			appliedRes[ri] = true
			remapped := algebra.MapCols(c, func(col int) int { return pos[col] })
			f, err := ev.filterTable(cur, remapped)
			if err != nil {
				return err
			}
			ev.note("residual filter %s -> %d rows", c, f.Len())
			cur = f
		}
		return nil
	}

	for si, st := range steps {
		next := st.Leaf
		var err error
		switch st.Kind {
		case JoinStart:
			// cur is the start leaf already
		case JoinHash:
			var curCols, leafCols []int
			for _, ei := range st.edges {
				e := jb.edges[ei]
				appliedEdge[ei] = true
				if e.leafA == next {
					leafCols = append(leafCols, e.colA-offsets[next])
					curCols = append(curCols, pos[e.colB])
				} else {
					leafCols = append(leafCols, e.colB-offsets[next])
					curCols = append(curCols, pos[e.colA])
				}
			}
			if cur, err = ev.hashJoin(cur, filtered[next], curCols, leafCols); err != nil {
				return nil, err
			}
			ev.stats.HashJoins++
			if ev.opts.Trace { // Key() renders the whole subtree; don't pay for it untraced
				ev.note("hash join + %s -> %d rows", leaves[next].Key(), cur.Len())
			}
		case JoinWildHash:
			// The edge and every residual this leaf completes are verified
			// together, per candidate: the step emits only the rows that
			// survive them all — the rows, in the order, that filtering
			// the joined table afterwards would leave, without building it.
			conds := []algebra.Cond{jb.residuals[st.unify]}
			appliedRes[st.unify] = true
			for ri, c := range jb.residuals {
				if !appliedRes[ri] && ready(c, next) {
					appliedRes[ri] = true
					conds = append(conds, c)
				}
			}
			curArity := cur.Arity()
			remapped := algebra.MapCols(algebra.NewAnd(conds...), func(col int) int {
				if jb.leafOf(col) == next {
					return curArity + col - offsets[next]
				}
				return pos[col]
			})
			resolved, err := ev.resolveScalars(remapped)
			if err != nil {
				return nil, err
			}
			if cur, err = ev.unifyProduct(cur, filtered[next], pos[st.ProbeCol], st.BuildCol-offsets[next], resolved); err != nil {
				return nil, err
			}
		case JoinProduct:
			if cur, err = ev.product(cur, filtered[next]); err != nil {
				return nil, err
			}
			ev.stats.NestedLoopJoins++
		}
		base := cur.Arity() - arities[next]
		for c := 0; c < arities[next]; c++ {
			pos[offsets[next]+c] = base + c
		}
		if si > 0 {
			if err := ev.gov.CheckRows("join-block", cur.Len()); err != nil {
				return nil, err
			}
		}
		if err := applyResiduals(); err != nil {
			return nil, err
		}
	}

	// Any edges between leaves that were joined through other paths.
	for ei, e := range jb.edges {
		if appliedEdge[ei] {
			continue
		}
		remapped := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: pos[e.colA]}, R: algebra.Col{Idx: pos[e.colB]}}
		f, err := ev.filterTable(cur, remapped)
		if err != nil {
			return nil, err
		}
		cur = f
	}

	// Permute back to canonical column order.
	out := table.New(totalArity)
	out.Grow(cur.Len())
	for _, r := range cur.Rows() {
		nr := make(table.Row, totalArity)
		for col := 0; col < totalArity; col++ {
			nr[col] = r[pos[col]]
		}
		out.Append(nr)
	}
	ev.note("join block (%d leaves) -> %d rows", n, out.Len())
	return out, nil
}

// hashJoin joins l and r on equality of the given column lists. Under
// SQL3VL semantics rows with null key values cannot match (A = NULL is
// unknown) and are skipped; under naive semantics marked nulls join by
// their marks, which the key encoding preserves.
func (ev *Evaluator) hashJoin(l, r *table.Table, lCols, rCols []int) (*table.Table, error) {
	sqlMode := ev.opts.Semantics == value.SQL3VL
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return nil, err
	}
	idx := make(map[string][]int, r.Len())
	for i, rr := range r.Rows() {
		if sqlMode && anyNull(rr, rCols) {
			continue
		}
		k := value.TupleKey(rr, rCols)
		idx[k] = append(idx[k], i)
	}
	// Probe partitions of l in parallel; a shared row counter enforces
	// the budget across partitions and cancels in-flight ones.
	arity := l.Arity() + r.Arity()
	lRows := l.Rows()
	chunks := make([][]table.Row, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err := ev.runChunks(l.Len(), "hash-join", func(c *chunk) error {
		var out []table.Row
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			lr := lRows[i]
			c.st.costUnits++
			if sqlMode && anyNull(lr, lCols) {
				continue
			}
			for _, ri := range idx[value.TupleKey(lr, lCols)] {
				c.st.costUnits++
				nr := make(table.Row, 0, arity)
				nr = append(nr, lr...)
				nr = append(nr, r.Row(ri)...)
				out = append(out, nr)
				if outRows.Add(1) > maxRows {
					return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "hash-join",
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
	if err := ev.charge("hash-join", int64(r.Len())); err != nil {
		return nil, err
	}
	return concatChunks(ev.gov, arity, chunks)
}

func anyNull(r table.Row, cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// semiCond returns a semijoin's condition in NNF.
func semiCond(e algebra.SemiJoin) algebra.Cond {
	if algebra.NNFIsIdentity(e.Cond) { // translations emit NNF; skip the per-execution rebuild
		return e.Cond
	}
	return algebra.NNF(e.Cond)
}

// semiPlan is the buffered state of a correlated (anti-)semijoin: the
// built right side, the resolved condition, and the chosen strategy.
// prepSemi builds it; probeSemi probes it one batch at a time.
type semiPlan struct {
	anti    bool
	nL      int
	name    string // "semijoin" or "antijoin"
	cond    algebra.Cond
	trivial bool // verify condition is constant true: key presence alone decides
	r       *table.Table
	idx     map[string][]int // hash buckets over r; nil selects nested loop
	numIdx  map[numKey][]int // specialized numeric buckets (NumKey hint); nil = use idx
	// Trivial-verify set indexes: when the verify condition is constant
	// true the bucket contents are never read, so the build stores only
	// key presence — no per-key slice appends, no row indexes.
	numSet  map[numKey]struct{}
	strSet  map[string]struct{}
	lCol    int   // probe column for numIdx/numSet
	lCols   []int // probe-side key columns (hash strategy only)
	sqlMode bool
	// uni is the wild-bucket index of the build side on the condition's
	// unification edge, for plans without a hash key (unify.go); uniCol
	// is the probe-side key column. Nil leaves the nested loop.
	uni    *shard.KeyedBuild
	uniCol int
}

// prepSemi evaluates the right side and builds the probe plan:
// extracts pure equality conjuncts spanning both sides as hash keys,
// resolves scalar subqueries in the condition (workers verify it, so
// substitution must happen on this goroutine), and builds the hash
// index when a key exists. The strategy counter is bumped here — one
// per operator.
//
// Under the FuseBuild hint a Select build side is not materialized:
// its child is evaluated directly and the selection condition is
// applied inside the build loop, so only the index ever holds the
// filtered rows. Fusion is skipped when the select subtree is a
// shared view — evaluating around it would lose the cache entry other
// plan occurrences rely on.
func (ev *Evaluator) prepSemi(e algebra.SemiJoin, cond algebra.Cond) (*semiPlan, error) {
	nL := e.L.Arity()
	hint := ev.semiHint(e.Key)
	rExpr := e.R
	var fuse algebra.Cond
	if hint.FuseBuild {
		if sel, ok := e.R.(algebra.Select); ok && !ev.sharedView(e.R) {
			rExpr, fuse = sel.Child, sel.Cond
		}
	}
	r, err := ev.evalChild(rExpr)
	if err != nil {
		return nil, err
	}
	if fuse != nil {
		// The planner only fuses scalar-free conditions; resolving is a
		// cheap no-op that keeps a hand-crafted hint from crashing.
		if fuse, err = ev.resolveScalars(fuse); err != nil {
			return nil, err
		}
	}
	p := &semiPlan{anti: e.Anti, nL: nL, name: "semijoin", r: r,
		sqlMode: ev.opts.Semantics == value.SQL3VL}
	if e.Anti {
		p.name = "antijoin"
	}

	// Extract pure equality conjuncts spanning both sides as hash keys,
	// keeping the conjuncts that were NOT consumed as keys: when the
	// planner's SlimVerify hint applies, the residual alone is verified
	// per candidate (bucket co-membership already proves the keys equal).
	var lCols, rCols []int
	var residual []algebra.Cond
	if !ev.opts.NoHashJoin {
		for _, c := range algebra.Conjuncts(cond) {
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				a, aok := cmp.L.(algebra.Col)
				b, bok := cmp.R.(algebra.Col)
				if aok && bok {
					switch {
					case a.Idx < nL && b.Idx >= nL:
						lCols = append(lCols, a.Idx)
						rCols = append(rCols, b.Idx-nL)
						continue
					case b.Idx < nL && a.Idx >= nL:
						lCols = append(lCols, b.Idx)
						rCols = append(rCols, a.Idx-nL)
						continue
					}
				}
			}
			residual = append(residual, c)
		}
	}
	verify := cond
	if hint.SlimVerify && len(lCols) > 0 {
		verify = algebra.NewAnd(residual...)
	}
	if p.cond, err = ev.resolveScalars(verify); err != nil {
		return nil, err
	}
	if _, isTrue := p.cond.(algebra.TrueCond); isTrue && hint.SlimVerify && len(lCols) > 0 {
		p.trivial = true
	}
	if fuse != nil && len(lCols) == 0 {
		// No hash keys extracted (hash joins disabled, or the condition
		// carries none): the nested loop scans p.r directly, so the
		// fused filter must be applied eagerly after all.
		if r, err = ev.filterTable(r, fuse); err != nil {
			return nil, err
		}
		p.r, fuse = r, nil
	}
	// keep applies the fused build-side filter; rows it rejects never
	// enter an index, matching the standalone filter byte for byte.
	keep := func(rr table.Row) (bool, error) {
		if fuse == nil {
			return true, nil
		}
		v, err := ev.evalCond(fuse, rr)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	}

	if len(lCols) > 0 {
		// Hash strategy: probe buckets, verify the condition.
		if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
			return nil, err
		}
		size := r.Len()
		if hint.BuildDistinct > 0 && hint.BuildDistinct < int64(size) {
			size = int(hint.BuildDistinct)
		}
		if hint.NumKey && len(lCols) == 1 {
			rCol := rCols[0]
			var numIdx map[numKey][]int
			var numSet map[numKey]struct{}
			if p.trivial {
				numSet = make(map[numKey]struct{}, size)
			} else {
				numIdx = make(map[numKey][]int, size)
			}
			ok := true
			for i, rr := range r.Rows() {
				if pass, err := keep(rr); err != nil {
					return nil, err
				} else if !pass {
					continue
				}
				if p.sqlMode && rr[rCol].IsNull() {
					continue
				}
				k, kOk := numKeyOf(rr[rCol])
				if !kOk {
					ok = false // surprise non-numeric value: fall back
					break
				}
				if p.trivial {
					numSet[k] = struct{}{}
				} else {
					numIdx[k] = append(numIdx[k], i)
				}
			}
			if ok {
				p.numIdx, p.numSet, p.lCol = numIdx, numSet, lCols[0]
			}
		}
		if p.numIdx == nil && p.numSet == nil {
			var idx map[string][]int
			var strSet map[string]struct{}
			if p.trivial {
				strSet = make(map[string]struct{}, size)
			} else {
				idx = make(map[string][]int, size)
			}
			for i, rr := range r.Rows() {
				if pass, err := keep(rr); err != nil {
					return nil, err
				} else if !pass {
					continue
				}
				if p.sqlMode && anyNull(rr, rCols) {
					continue
				}
				k := value.TupleKey(rr, rCols)
				if p.trivial {
					strSet[k] = struct{}{}
				} else {
					idx[k] = append(idx[k], i)
				}
			}
			p.idx, p.strSet = idx, strSet
		}
		if err := ev.charge("semijoin/build", int64(r.Len())); err != nil {
			return nil, err
		}
		p.lCols = lCols
		ev.stats.HashJoins++
		ev.note("hash %s [%d keys] build %d rows (slim=%v numkey=%v fused=%v)",
			p.name, len(lCols), r.Len(), hint.SlimVerify,
			p.numIdx != nil || p.numSet != nil, fuse != nil)
		return p, nil
	}
	// No hash key: conditions of the form (A = B OR B IS NULL) defeat
	// key extraction, per Section 7 of the paper. That very disjunct is a
	// unification edge, so the build side is indexed on it instead; the
	// nested loop remains for edge-free conditions and under NoHashJoin
	// (the paper's confused optimizer).
	if lc, rc, ok := SpanningUnifyEdge(cond, nL); ok && !ev.opts.NoHashJoin {
		if err := ev.chargeUnifyBuild("semijoin/build", r.Len()); err != nil {
			return nil, err
		}
		p.uni, p.uniCol = shard.BuildKeyed(r.Rows(), rc, 1), lc
		ev.note("%s on probe #%d ≈ build #%d: wild-hash %d keyed / %d wild",
			p.name, lc, nL+rc, p.uni.Keyed(), len(p.uni.Wild))
		return p, nil
	}
	ev.stats.NestedLoopJoins++
	ev.note("nested-loop %s vs %d rows", p.name, r.Len())
	return p, nil
}

// semiMatch probes one row against the plan. c supplies the worker's
// cost counters and its scratch buffer for candidate verification.
func (ev *Evaluator) semiMatch(p *semiPlan, c *chunk, lr table.Row) (bool, error) {
	match := false
	row := c.scratch(p.nL + p.r.Arity())
	switch {
	case p.numSet != nil || p.strSet != nil:
		// Slim verify with empty residual: key presence alone
		// decides the match.
		c.st.costUnits++
		if !(p.sqlMode && anyNull(lr, p.lCols)) {
			if p.numSet != nil {
				// A probe kind outside the numeric namespace is a
				// guaranteed miss — its TupleKey tag could not
				// collide with any numeric build key either.
				if k, ok := numKeyOf(lr[p.lCol]); ok {
					_, match = p.numSet[k]
				}
			} else {
				_, match = p.strSet[value.TupleKey(lr, p.lCols)]
			}
		}
	case p.idx != nil || p.numIdx != nil:
		c.st.costUnits++
		if !(p.sqlMode && anyNull(lr, p.lCols)) {
			var bucket []int
			if p.numIdx != nil {
				// A probe kind outside the numeric namespace keeps
				// bucket nil — its TupleKey tag could not collide
				// with any numeric build key either.
				if k, ok := numKeyOf(lr[p.lCol]); ok {
					bucket = p.numIdx[k]
				}
			} else {
				bucket = p.idx[value.TupleKey(lr, p.lCols)]
			}
			copy(row, lr)
			for _, ri := range bucket {
				c.st.costUnits++
				copy(row[p.nL:], p.r.Row(ri))
				v, err := ev.evalCond(p.cond, row)
				if err != nil {
					return false, err
				}
				if v.IsTrue() {
					match = true
					break
				}
			}
		}
	default:
		// Candidates in ascending build order: the key's bucket merged
		// with the wild rows, or — for a null probe key, which can
		// satisfy the edge against any build row, and for plans without
		// an index — every build row. The full condition decides each.
		cur := shard.ScanAll(p.r.Len())
		if p.uni != nil {
			c.st.costUnits++
			cur = p.uni.Probe(lr[p.uniCol])
		}
		copy(row, lr)
		for ri, ok := cur.Next(); ok; ri, ok = cur.Next() {
			c.st.costUnits++
			copy(row[p.nL:], p.r.Row(ri))
			v, err := ev.evalCond(p.cond, row)
			if err != nil {
				return false, err
			}
			if v.IsTrue() {
				match = true
				break
			}
		}
	}
	return match, nil
}

// probeSemi probes lRows against the plan and returns the qualifying
// rows in input order. The probe rows are independent, so the scan fans
// out across workers (keepRows) — the single largest lever on the
// Figure 4 / Q⁺4 cost — with deterministic results at any Parallelism
// and Shards.
func (ev *Evaluator) probeSemi(p *semiPlan, lRows []table.Row) ([]table.Row, error) {
	return ev.keepRows("semijoin/probe", lRows, guard.SiteSemijoinProbe, func(c *chunk, lr table.Row) (bool, error) {
		match, err := ev.semiMatch(p, c, lr)
		return match != p.anti, err
	})
}

// semiExists answers an uncorrelated subquery once: the condition
// mentions no columns of L, so "∃s ∈ R: θ(s)" has one answer for the
// whole query. Evaluating R first lets an anti-join with a witness
// short-circuit to the empty result without ever computing L — this is
// precisely why the translated Q2 runs orders of magnitude faster than
// the original.
func (ev *Evaluator) semiExists(nL int, rExpr algebra.Expr, cond algebra.Cond) (bool, error) {
	r, err := ev.evalChild(rExpr)
	if err != nil {
		return false, err
	}
	if cond, err = ev.resolveScalars(cond); err != nil {
		return false, err
	}
	exists := false
	row := make(table.Row, nL+r.Arity())
	for _, rr := range r.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("short-circuit"); err != nil {
			return false, err
		}
		copy(row[nL:], rr)
		v, err := ev.evalCond(cond, row)
		if err != nil {
			return false, err
		}
		if v.IsTrue() {
			exists = true
			break
		}
	}
	ev.stats.ShortCircuits++
	ev.note("uncorrelated subquery: exists=%v", exists)
	return exists, nil
}
