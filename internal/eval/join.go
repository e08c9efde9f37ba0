package eval

import (
	"cmp"
	"fmt"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
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
			nCur, nLeaf := cur.Len(), filtered[next].Len()
			if cur, err = ev.hashJoin(cur, filtered[next], curCols, leafCols); err != nil {
				return nil, err
			}
			ev.stats.HashJoins++
			if ev.opts.Trace { // Key() renders the whole subtree; don't pay for it untraced
				side := fmt.Sprintf("build %d rows", nLeaf)
				if nCur < nLeaf {
					side = fmt.Sprintf("build-left %d, streamed %d", nCur, nLeaf)
				}
				ev.note("hash join + %s %s -> %d rows", leaves[next].Key(), side, cur.Len())
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
	slab := make([]value.Value, cur.Len()*totalArity)
	for i, r := range cur.Rows() {
		nr := slab[i*totalArity : (i+1)*totalArity : (i+1)*totalArity]
		for col := 0; col < totalArity; col++ {
			nr[col] = r[pos[col]]
		}
		out.Append(nr)
	}
	ev.note("join block (%d leaves) -> %d rows", n, out.Len())
	return out, nil
}

// eqNulls is the null-key policy of an equality key under the
// evaluator's semantics: under SQL3VL a null key equals nothing (A =
// NULL is unknown), so its row enters no index and finds no bucket, on
// either side; under naive semantics marked nulls join by their marks.
func (ev *Evaluator) eqNulls() table.NullKeys {
	if ev.opts.Semantics == value.SQL3VL {
		return table.NullsSkip
	}
	return table.NullsByMark
}

// passes reports whether r satisfies a fused build-side filter.
func (ev *Evaluator) passes(fuse algebra.Cond, r table.Row) (bool, error) {
	if fuse == nil {
		return true, nil
	}
	v, err := ev.evalCond(fuse, r)
	return v.IsTrue(), err
}

// hashJoin joins l and r on equality of the given column lists,
// indexing whichever input is smaller and streaming the other past the
// index in parallel partitions: a null key enters neither side, so the
// side is a free choice, and both directions find the same pairs for
// the same |L| + |R| + pairs cost units. A shared row counter enforces
// the budget across partitions and cancels in-flight ones. The index is
// charged to the memory governor until the join returns.
func (ev *Evaluator) hashJoin(l, r *table.Table, lCols, rCols []int) (*table.Table, error) {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return nil, err
	}
	buildLeft := l.Len() < r.Len()
	build, bCols, probe, pCols := r, rCols, l, lCols
	if buildLeft {
		build, bCols, probe, pCols = l, lCols, r, rCols
	}
	idx := table.BuildIndex(build.Rows(), bCols, ev.eqNulls(), build.Len(), nil)
	mem := idx.EstimatedBytes()
	defer ev.gov.ReleaseMem(mem) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("hash-join", mem); err != nil {
		return nil, err
	}
	pRows := probe.Rows()
	chunks := make([][][2]int, ev.opts.workers()) // (l, r) positions of the joined pairs
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err := ev.runChunks(len(pRows), "hash-join", func(c *chunk) error {
		var out [][2]int
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			cur := idx.Probe(pRows[i], pCols, &c.key)
			for j, ok := cur.Next(); ok; j, ok = cur.Next() {
				c.st.costUnits++
				if buildLeft {
					out = append(out, [2]int{j, i})
				} else {
					out = append(out, [2]int{i, j})
				}
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
	if err := ev.charge("hash-join", int64(build.Len())); err != nil {
		return nil, err
	}
	return ev.joinPairs(l, r, chunks, buildLeft)
}

// joinPairs materializes the joined (l, r) pairs l-major, r ascending
// under each l row — the order probing an index of r with l finds them
// in. Pairs found streaming r past an index of l arrive r-major instead
// and are regrouped by a stable counting sort on the l position. The
// rows are cut from one slab.
func (ev *Evaluator) joinPairs(l, r *table.Table, chunks [][][2]int, regroup bool) (*table.Table, error) {
	pairs := chunks[0]
	for _, c := range chunks[1:] {
		pairs = append(pairs, c...)
	}
	if regroup {
		at := make([]int, l.Len()+1) // at[i]: where l row i's pairs start
		for _, p := range pairs {
			at[p[0]+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		sorted := make([][2]int, len(pairs))
		for _, p := range pairs {
			sorted[at[p[0]]] = p
			at[p[0]]++
		}
		pairs = sorted
	}
	nL, arity := l.Arity(), l.Arity()+r.Arity()
	out := table.New(arity)
	out.Grow(len(pairs))
	slab := make([]value.Value, len(pairs)*arity)
	for k, p := range pairs {
		if k&1023 == 0 { // a drain loop in its own right, as concatChunks is
			if err := ev.gov.Poll("hash-join"); err != nil {
				return nil, err
			}
		}
		nr := slab[k*arity : (k+1)*arity : (k+1)*arity]
		copy(nr, l.Row(p[0]))
		copy(nr[nL:], r.Row(p[1]))
		out.Append(nr)
	}
	return out, nil
}

// semiCond returns a semijoin's condition in NNF.
func semiCond(e algebra.SemiJoin) algebra.Cond {
	if algebra.NNFIsIdentity(e.Cond) { // translations emit NNF; skip the per-execution rebuild
		return e.Cond
	}
	return algebra.NNF(e.Cond)
}

// semiPlan is the buffered state of a correlated (anti-)semijoin: the
// evaluated right side, the resolved condition, and the chosen
// strategy. prepSemi builds it; probeSemi probes it one batch at a
// time. A hash plan's index is built later, on the side that turns out
// smaller (semiProbeIter.choose).
type semiPlan struct {
	anti    bool
	nL      int
	name    string // "semijoin" or "antijoin"
	cond    algebra.Cond
	trivial bool // verify condition is constant true: key presence alone decides
	r       *table.Table
	// lCols/rCols are the hash keys on the probe and build side; nil
	// selects the wild-hash index or the nested loop. fuse is the build
	// side's fused filter (FuseBuild hint), nil for none.
	lCols, rCols []int
	fuse         algebra.Cond
	hint         SemiHint
	// idx indexes r on the hash keys (buildSemi) or, for plans without
	// one, on the condition's unification edge (unify.go); probeCols are
	// the probe-side key columns and mem the index's live memory charge,
	// which semiProbeIter.close releases. Nil: the nested loop, or a hash
	// plan that has not built its index.
	idx       *table.Index
	probeCols []int
	mem       int64
}

// prepSemi evaluates the right side and prepares the probe plan:
// extracts pure equality conjuncts spanning both sides as hash keys and
// resolves scalar subqueries in the condition (workers verify it, so
// substitution must happen on this goroutine). The strategy counter is
// bumped here — one per operator.
//
// Under the FuseBuild hint a Select build side is not materialized:
// its child is evaluated directly and the selection condition is
// applied where the build side is read, so the filtered rows are never
// copied. Fusion is skipped when the select subtree is a shared view —
// evaluating around it would lose the cache entry other plan
// occurrences rely on.
//
// vetcert:ignore membalance: the wild-hash index lives as long as the
// iterator probing it; semiProbeIter.close releases p.mem.
func (ev *Evaluator) prepSemi(e algebra.SemiJoin, cond algebra.Cond) (*semiPlan, error) {
	nL := e.L.Arity()
	p := &semiPlan{anti: e.Anti, nL: nL, name: "semijoin", hint: ev.semiHint(e.Key)}
	if e.Anti {
		p.name = "antijoin"
	}
	rExpr := e.R
	if p.hint.FuseBuild {
		if sel, ok := e.R.(algebra.Select); ok && !ev.sharedView(e.R) {
			rExpr, p.fuse = sel.Child, sel.Cond
		}
	}
	var err error
	if p.r, err = ev.evalChild(rExpr); err != nil {
		return nil, err
	}
	if p.fuse != nil {
		// The planner only fuses scalar-free conditions; resolving is a
		// cheap no-op that keeps a hand-crafted hint from crashing.
		if p.fuse, err = ev.resolveScalars(p.fuse); err != nil {
			return nil, err
		}
	}

	// Extract pure equality conjuncts spanning both sides as hash keys,
	// keeping the conjuncts that were NOT consumed as keys: when the
	// planner's SlimVerify hint applies, the residual alone is verified
	// per candidate (bucket co-membership already proves the keys equal).
	var residual []algebra.Cond
	if !ev.opts.NoHashJoin {
		for _, c := range algebra.Conjuncts(cond) {
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				a, aok := cmp.L.(algebra.Col)
				b, bok := cmp.R.(algebra.Col)
				if aok && bok {
					switch {
					case a.Idx < nL && b.Idx >= nL:
						p.lCols = append(p.lCols, a.Idx)
						p.rCols = append(p.rCols, b.Idx-nL)
						continue
					case b.Idx < nL && a.Idx >= nL:
						p.lCols = append(p.lCols, b.Idx)
						p.rCols = append(p.rCols, a.Idx-nL)
						continue
					}
				}
			}
			residual = append(residual, c)
		}
	}
	verify := cond
	if p.hint.SlimVerify && len(p.lCols) > 0 {
		verify = algebra.NewAnd(residual...)
	}
	if p.cond, err = ev.resolveScalars(verify); err != nil {
		return nil, err
	}
	if _, isTrue := p.cond.(algebra.TrueCond); isTrue && p.hint.SlimVerify && len(p.lCols) > 0 {
		p.trivial = true
	}
	if len(p.lCols) > 0 {
		ev.stats.HashJoins++ // hash strategy: probe buckets, verify the condition
		return p, nil
	}
	if p.fuse != nil {
		// No hash keys extracted (hash joins disabled, or the condition
		// carries none): the loops below scan p.r directly, so the fused
		// filter must be applied eagerly after all.
		if p.r, err = ev.filterTable(p.r, p.fuse); err != nil {
			return nil, err
		}
		p.fuse = nil
	}
	// No hash key: conditions of the form (A = B OR B IS NULL) defeat
	// key extraction, per Section 7 of the paper. That very disjunct is a
	// unification edge, so the build side is indexed on it instead; the
	// nested loop remains for edge-free conditions and under NoHashJoin
	// (the paper's confused optimizer).
	if lc, rc, ok := SpanningUnifyEdge(cond, nL); ok && !ev.opts.NoHashJoin {
		if err := ev.chargeUnifyBuild("semijoin/build", p.r.Len()); err != nil {
			return nil, err
		}
		p.idx = table.BuildIndex(p.r.Rows(), []int{rc}, table.NullsWild, 0, nil)
		p.probeCols = []int{lc}
		p.mem = p.idx.EstimatedBytes()
		if err := ev.gov.ChargeMem("semijoin/build", p.mem); err != nil {
			ev.gov.ReleaseMem(p.mem) // ChargeMem adds before checking, and no iterator owns p.mem yet
			return nil, err
		}
		ev.note("%s on probe #%d ≈ build #%d: wild-hash %d keyed / %d wild",
			p.name, lc, nL+rc, p.idx.Keyed(), p.idx.Wild())
		return p, nil
	}
	ev.stats.NestedLoopJoins++
	ev.note("nested-loop %s vs %d rows", p.name, p.r.Len())
	return p, nil
}

// buildSemi indexes the build side of a hash (anti-)semijoin — the
// forward direction, taken when the probe side is not the smaller one.
//
// vetcert:ignore membalance: the index lives as long as the iterator
// probing it; semiProbeIter.close releases p.mem, a failed charge too.
func (ev *Evaluator) buildSemi(p *semiPlan) error {
	size := p.r.Len()
	if d := p.hint.BuildDistinct; d > 0 && d < int64(size) {
		size = int(d)
	}
	var fuseErr error
	var keep func(table.Row) bool
	if p.fuse != nil {
		keep = func(r table.Row) bool {
			pass, err := ev.passes(p.fuse, r)
			fuseErr = cmp.Or(fuseErr, err)
			return pass
		}
	}
	p.idx, p.probeCols = table.BuildIndex(p.r.Rows(), p.rCols, ev.eqNulls(), size, keep), p.lCols
	if fuseErr != nil {
		return fuseErr
	}
	p.mem = p.idx.EstimatedBytes()
	if err := ev.gov.ChargeMem("semijoin/build", p.mem); err != nil {
		return err
	}
	ev.note("hash %s [%d keys] build %d rows (slim=%v fused=%v)",
		p.name, len(p.lCols), p.r.Len(), p.hint.SlimVerify, p.fuse != nil)
	return ev.charge("semijoin/build", int64(p.r.Len()))
}

// semiBuildLeft answers a hash (anti-)semijoin whose whole probe side,
// held, is smaller than the build side: held is indexed and R streams
// past it once, in parallel partitions. An R row whose bucket still has
// an undecided held row is put through the fused filter — evaluated on
// the rows that join, not on all of R — and verified against the
// bucket's undecided rows in order, so the pairs verified are the
// forward direction's: (l, r) iff the keys agree, r passes the filter
// and no earlier r′ satisfied l (DESIGN.md §12). A partition cannot
// know what earlier ones decided, so each records per held row whether
// it matched and how many candidates it verified; summed over the
// partitions up to the row's first match, that is the count of one pass
// in R order at any Parallelism. The index is charged to the memory
// governor until the answer is decided.
func (ev *Evaluator) semiBuildLeft(p *semiPlan, held []table.Row) ([]table.Row, error) {
	idx := table.BuildIndex(held, p.lCols, ev.eqNulls(), len(held), nil)
	mem := idx.EstimatedBytes()
	defer ev.gov.ReleaseMem(mem) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("semijoin/build", mem); err != nil {
		return nil, err
	}
	if err := ev.charge("semijoin/build", int64(len(held))); err != nil {
		return nil, err
	}
	workers := ev.opts.workers()
	matched, verified := make([][]bool, workers), make([][]int64, workers)
	var filtered atomic.Int64 // R rows put through the fused filter, for the trace
	rRows := p.r.Rows()
	err := ev.runChunks(len(rRows), "semijoin/probe", func(c *chunk) error {
		if err := c.fault(guard.SiteSemijoinProbe); err != nil {
			return err
		}
		m, n := make([]bool, len(held)), make([]int64, len(held))
		matched[c.part], verified[c.part] = m, n
		row := c.scratch(p.nL + p.r.Arity())
		ran := int64(0)
		for _, rr := range rRows[c.lo:c.hi] {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			passed := false
			cur := idx.Probe(rr, p.rCols, &c.key)
			for i, ok := cur.Next(); ok; i, ok = cur.Next() {
				if m[i] {
					continue
				}
				if !passed {
					ran++
					if pass, err := ev.passes(p.fuse, rr); err != nil {
						return err
					} else if !pass {
						break
					}
					passed = true
					copy(row[p.nL:], rr)
				}
				if !p.trivial {
					n[i]++
					copy(row, held[i])
					if v, err := ev.evalCond(p.cond, row); err != nil {
						return err
					} else if !v.IsTrue() {
						continue
					}
				}
				m[i] = true
			}
		}
		filtered.Add(ran)
		return nil
	})
	if err != nil {
		return nil, err
	}
	keep := make([]bool, len(held))
	var pairs int64
	for i := range held {
		hit := false
		for w := 0; w < workers && matched[w] != nil && !hit; w++ {
			pairs += verified[w][i]
			hit = matched[w][i]
		}
		keep[i] = hit != p.anti
	}
	if err := ev.charge("semijoin/probe", pairs); err != nil {
		return nil, err
	}
	fused := ""
	if p.fuse != nil {
		fused = fmt.Sprintf(" (fused filter on %d)", filtered.Load())
	}
	ev.note("hash %s [%d keys] build-left %d rows, streamed %d%s", p.name, len(p.lCols), len(held), len(rRows), fused)
	return keptRows(held, keep), nil
}

// semiMatch probes one row against the plan. c supplies the worker's
// cost counters and its scratch buffers for the key and for candidate
// verification.
func (ev *Evaluator) semiMatch(p *semiPlan, c *chunk, lr table.Row) (bool, error) {
	row := c.scratch(p.nL + p.r.Arity())
	if !p.trivial {
		copy(row, lr)
	}
	// Candidates come in ascending build order: the probe key's bucket,
	// merged with the wild rows of a unification edge — or, for a null
	// probe key on one, and for plans without an index, every build row.
	// The verify condition decides each; the first match ends the walk.
	cur := table.ScanCursor(p.r.Len())
	if p.idx != nil {
		c.st.costUnits++
		cur = p.idx.Probe(lr, p.probeCols, &c.key)
	}
	for ri, ok := cur.Next(); ok; ri, ok = cur.Next() {
		if p.trivial { // slim verify with empty residual: key presence alone decides
			return true, nil
		}
		c.st.costUnits++
		copy(row[p.nL:], p.r.Row(ri))
		if v, err := ev.evalCond(p.cond, row); v.IsTrue() || err != nil {
			return v.IsTrue(), err
		}
	}
	return false, nil
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
