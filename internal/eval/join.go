package eval

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// planJoinBlock plans and executes σ_cond(leaf₀ × leaf₁ × …) — the
// shape SELECT-FROM-WHERE blocks compile to — greedily, in the order
// JoinBlock.Order derives from the filtered leaf sizes: the condition's
// equality conjuncts become hash equi-joins instead of a materialized
// product. The joined set is late-materialized (joinSet): every step
// extends tuples of row positions into the filtered leaves, conditions
// are evaluated on a scratch row gathered from them in canonical column
// positions, and the output, in the canonical column order of the
// product, is the one copy of row values the block makes. Every edge is
// a key of the hash step that joins its second leaf: a leaf with an edge
// to the joined set is always a hash candidate.
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
		t, err := ev.evalChild(jb.Leaf(i, leaf))
		if err != nil {
			return nil, err
		}
		filtered[i] = t
	}
	steps := jb.Order(func(leaf int) float64 { return float64(filtered[leaf].Len()) })

	s := &joinSet{jb: jb, leaves: filtered}
	joined := make([]bool, n)
	appliedRes := make([]bool, len(jb.residuals))
	// ready reports whether every column of c is joined or in leaf (-1:
	// joined alone).
	ready := func(c algebra.Cond, leaf int) bool {
		for _, col := range algebra.ColsUsed(c) {
			if l := jb.owner[col]; !joined[l] && l != leaf {
				return false
			}
		}
		return true
	}

	for si, st := range steps {
		next, leaf := st.Leaf, filtered[st.Leaf]
		var pairs [][2]int // (tuple, row of next), tuple-major
		var err error
		switch st.Kind {
		case JoinStart:
			s.tuples = make([]int, leaf.Len()*n)
			for i := range leaf.Len() {
				s.tuples[i*n+next] = i
			}
		case JoinHash:
			var curCols, leafCols []int
			for _, ei := range st.edges {
				e := jb.edges[ei]
				if e.leafA == next {
					leafCols, curCols = append(leafCols, e.colA-offsets[next]), append(curCols, e.colB)
				} else {
					leafCols, curCols = append(leafCols, e.colB-offsets[next]), append(curCols, e.colA)
				}
			}
			nCur := s.len()
			if pairs, err = ev.hashStep(s, next, curCols, leafCols); err != nil {
				return nil, err
			}
			ev.stats.HashJoins++
			if ev.opts.Trace { // Key() renders the whole subtree; don't pay for it untraced
				side := fmt.Sprintf("build %d rows", leaf.Len())
				if nCur < leaf.Len() {
					side = fmt.Sprintf("build-left %d, streamed %d", nCur, leaf.Len())
				}
				ev.note("hash join + %s %s -> %d rows", leaves[next].Key(), side, len(pairs))
			}
		case JoinWildHash:
			// The edge and every residual this leaf completes are verified
			// together, per candidate: the step emits only the pairs that
			// survive them all — the rows, in the order, that filtering
			// the joined set afterwards would leave, without building it.
			conds := []algebra.Cond{jb.residuals[st.unify]}
			appliedRes[st.unify] = true
			for ri, c := range jb.residuals {
				if !appliedRes[ri] && ready(c, next) {
					appliedRes[ri] = true
					conds = append(conds, c)
				}
			}
			resolved, err := ev.resolveScalars(algebra.NewAnd(conds...))
			if err != nil {
				return nil, err
			}
			if pairs, err = ev.wildStep(s, st, resolved); err != nil {
				return nil, err
			}
		case JoinProduct:
			if pairs, err = ev.productStep(s, next); err != nil {
				return nil, err
			}
			ev.stats.NestedLoopJoins++
		}
		if si > 0 {
			if err := s.extend(ev.gov, pairs, next); err != nil {
				return nil, err
			}
			if err := ev.gov.CheckRows("join-block", s.len()); err != nil {
				return nil, err
			}
		}
		joined[next] = true
		for ri, c := range jb.residuals {
			if appliedRes[ri] || !ready(c, -1) {
				continue
			}
			appliedRes[ri] = true
			if err := ev.filterTuples(s, c); err != nil {
				return nil, err
			}
			ev.note("residual filter %s -> %d rows", c, s.len())
		}
	}

	rows, slab := make([]table.Row, s.len()), make([]value.Value, s.len()*totalArity)
	for i := range rows {
		nr := slab[i*totalArity : (i+1)*totalArity : (i+1)*totalArity]
		for l, pos := range s.tuple(i) {
			copy(nr[offsets[l]:], filtered[l].Row(pos))
		}
		rows[i] = nr
	}
	ev.note("join block (%d leaves) -> %d rows", n, len(rows))
	return table.FromRows(totalArity, rows), nil
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

// joinSet is a join block's joined set, late-materialized: flat tuples
// of row positions, one slot per leaf, holding a row of the filtered
// leaf once that leaf is joined.
type joinSet struct {
	jb     *JoinBlock
	leaves []*table.Table
	tuples []int
}

func (s *joinSet) len() int          { return len(s.tuples) / len(s.leaves) }
func (s *joinSet) arity() int        { return len(s.jb.owner) }
func (s *joinSet) tuple(i int) []int { return s.tuples[i*len(s.leaves) : (i+1)*len(s.leaves)] }

// at returns tuple t's value in canonical column c.
func (s *joinSet) at(t []int, c int) value.Value {
	l := s.jb.owner[c]
	return s.leaves[l].Row(t[l])[c-s.jb.offsets[l]]
}

// probeRow returns a probe over the tuples: tuple i's canonical columns
// cols, gathered into the chunk's scratch row.
func (s *joinSet) probeRow(cols []int) func(c *chunk, i int) table.Row {
	return func(c *chunk, i int) table.Row {
		row := c.scratch(s.arity())
		for _, col := range cols {
			row[col] = s.at(s.tuple(i), col)
		}
		return row
	}
}

// extend replaces the tuples by the step's (tuple, row of leaf next)
// pairs, in pair order.
func (s *joinSet) extend(gov *guard.Governor, pairs [][2]int, next int) error {
	n := len(s.leaves)
	out := make([]int, len(pairs)*n)
	for k, p := range pairs {
		if k&1023 == 0 { // a drain loop in its own right
			if err := gov.Poll("join-block"); err != nil {
				return err
			}
		}
		t := out[k*n : (k+1)*n]
		copy(t, s.tuple(p[0]))
		t[next] = p[1]
	}
	s.tuples = out
	return nil
}

// hashStep joins leaf next to the tuples on equality of their canonical
// curCols with the leaf's leafCols, indexing whichever side is smaller:
// a null key enters neither side, so both directions find the same
// pairs for the same |cur| + |leaf| + pairs cost units. The tuples are
// indexed on gathered rows of their key columns. The index is charged
// to the memory governor until the step returns.
func (ev *Evaluator) hashStep(s *joinSet, next int, curCols, leafCols []int) ([][2]int, error) {
	if err := ev.gov.Fault(guard.SiteHashBuild); err != nil {
		return nil, err
	}
	leaf, nCur := s.leaves[next], s.len()
	buildLeft := nCur < leaf.Len()
	var idx *table.Index
	probe, n, cols := s.probeRow(curCols), nCur, curCols
	if buildLeft {
		k := len(curCols)
		keys, slab := make([]table.Row, nCur), make([]value.Value, nCur*k)
		for i := range keys {
			keys[i] = slab[i*k : (i+1)*k : (i+1)*k]
			for x, c := range curCols {
				keys[i][x] = s.at(s.tuple(i), c)
			}
		}
		idx = table.BuildIndex(keys, rangeInts(k), ev.eqNulls(), nCur, nil)
		rows := leaf.Rows()
		probe, n, cols = func(_ *chunk, j int) table.Row { return rows[j] }, len(rows), leafCols
	} else {
		idx = table.BuildIndex(leaf.Rows(), leafCols, ev.eqNulls(), leaf.Len(), nil)
	}
	mem := idx.EstimatedBytes()
	defer ev.gov.ReleaseMem(mem) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("hash-join", mem); err != nil {
		return nil, err
	}
	pairs, err := ev.probePairs("hash-join", n, idx, cols, probe, nil)
	if err != nil {
		return nil, err
	}
	if buildLeft {
		pairs = byTuple(pairs, nCur)
	}
	return pairs, ev.charge("hash-join", int64(min(nCur, leaf.Len())))
}

// byTuple regroups build-left pairs, found leaf-major as (leaf row,
// tuple), into (tuple, leaf row) pairs by a stable counting sort on the
// tuple: tuple-major, leaf rows ascending, as probing the leaf finds them.
func byTuple(pairs [][2]int, nTuples int) [][2]int {
	at := make([]int, nTuples+1) // at[i]: where tuple i's pairs start
	for _, p := range pairs {
		at[p[1]+1]++
	}
	for i := 1; i < len(at); i++ {
		at[i] += at[i-1]
	}
	sorted := make([][2]int, len(pairs))
	for _, p := range pairs {
		sorted[at[p[1]]] = [2]int{p[1], p[0]}
		at[p[1]]++
	}
	return sorted
}

// probePairs streams probe rows 0..n-1 past idx, keyed on cols, in
// parallel partitions and returns the (probe row, candidate) pairs keep
// accepts (nil accepts all), probe-major, candidates ascending, for a
// unit per probe and per candidate. A shared row counter enforces the
// budget across partitions and cancels in-flight ones.
func (ev *Evaluator) probePairs(op string, n int, idx *table.Index, cols []int,
	probe func(c *chunk, i int) table.Row, keep func(c *chunk, j int) (bool, error)) ([][2]int, error) {
	chunks := make([][][2]int, ev.opts.workers())
	maxRows := int64(ev.gov.MaxRows())
	var outRows atomic.Int64
	err := ev.runChunks(n, op, func(c *chunk) error {
		var out [][2]int
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			c.st.costUnits++
			cur := idx.Probe(probe(c, i), cols, &c.key)
			for j, ok := cur.Next(); ok; j, ok = cur.Next() {
				c.st.costUnits++
				if keep != nil {
					kept, err := keep(c, j)
					if err != nil {
						return err
					}
					if !kept {
						continue
					}
				}
				out = append(out, [2]int{i, j})
				if outRows.Add(1) > maxRows {
					return &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: op,
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
	pairs := chunks[0]
	for _, c := range chunks[1:] {
		pairs = append(pairs, c...)
	}
	return pairs, nil
}

// productStep pairs every tuple with every row of leaf next: a
// Cartesian step, charged |cur|·|leaf| as product charges.
func (ev *Evaluator) productStep(s *joinSet, next int) ([][2]int, error) {
	nCur, nLeaf := s.len(), s.leaves[next].Len()
	n, err := ev.productRows(nCur, nLeaf)
	if err != nil {
		return nil, err
	}
	pairs := make([][2]int, 0, n)
	for i := range nCur {
		if err := ev.tick("product"); err != nil {
			return nil, err
		}
		for j := range nLeaf {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	ev.note("product -> %d rows", n)
	return pairs, ev.charge("product", int64(n))
}

// filterTuples keeps the tuples that satisfy cond, in canonical
// columns, with filterTable's scan and charges.
func (ev *Evaluator) filterTuples(s *joinSet, cond algebra.Cond) error {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		return err
	}
	probe := s.probeRow(algebra.ColsUsed(cond))
	keep, err := ev.keep("filter", s.len(), "", func(c *chunk, i int) (bool, error) {
		c.st.costUnits++
		v, err := ev.evalCond(cond, probe(c, i))
		return v.IsTrue(), err
	})
	if err != nil {
		return err
	}
	kept := 0
	for i, k := range keep {
		if i&1023 == 0 { // a drain loop in its own right
			if err := ev.gov.Poll("concat-chunks"); err != nil {
				return err
			}
		}
		if k {
			copy(s.tuple(kept), s.tuple(i))
			kept++
		}
	}
	s.tuples = s.tuples[:kept*len(s.leaves)]
	return nil
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
	r       buildSide
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

// SemiKeys splits a semijoin condition cond (in NNF), whose columns
// below nL are the probe side's, into its hash keys — the pure
// column-to-column equality conjuncts spanning both sides, build
// columns local to the build side — and the residual conjuncts not
// consumed as keys. prepSemi hashes on exactly these keys; the planner
// calls it too, so its strategy and hints follow the executor's.
func SemiKeys(cond algebra.Cond, nL int) (lCols, rCols []int, residual []algebra.Cond) {
	for _, c := range algebra.Conjuncts(cond) {
		if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
			a, aok := cmp.L.(algebra.Col)
			b, bok := cmp.R.(algebra.Col)
			if aok && bok {
				switch {
				case a.Idx < nL && b.Idx >= nL:
					lCols, rCols = append(lCols, a.Idx), append(rCols, b.Idx-nL)
					continue
				case b.Idx < nL && a.Idx >= nL:
					lCols, rCols = append(lCols, b.Idx), append(rCols, a.Idx-nL)
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return lCols, rCols, residual
}

// prepSemi evaluates the right side and prepares the probe plan:
// extracts pure equality conjuncts spanning both sides as hash keys and
// resolves scalar subqueries in the condition (workers verify it, so
// substitution must happen on this goroutine). The strategy counter is
// bumped here — one per operator.
//
// A hash-keyed build side is read as the plan's hint says: in two parts
// (SemiHint.Split), or under FuseBuild not materialized at all — the
// Select build side's child is evaluated directly and the selection
// condition is applied where the build side is read, so the filtered
// rows are never copied.
//
// vetcert:ignore membalance: the wild-hash index lives as long as the
// iterator probing it; semiProbeIter.close releases p.mem.
func (ev *Evaluator) prepSemi(e algebra.SemiJoin, cond algebra.Cond) (*semiPlan, error) {
	nL := e.L.Arity()
	p := &semiPlan{anti: e.Anti, nL: nL, name: "semijoin", hint: ev.semiHint(e.Key)}
	if e.Anti {
		p.name = "antijoin"
	}
	// Extract hash keys, keeping the conjuncts that were NOT consumed as
	// keys: when the planner's SlimVerify hint applies, the residual
	// alone is verified per candidate (bucket co-membership already
	// proves the keys equal).
	var residual []algebra.Cond
	if !ev.opts.NoHashJoin {
		p.lCols, p.rCols, residual = SemiKeys(cond, nL)
	}
	rExpr := e.R
	var t *table.Table // the evaluated build side, unless read in two parts
	var err error
	sel, isSel := rExpr.(algebra.Select)
	switch split := p.hint.Split; {
	case split != nil && len(p.lCols) > 0:
		p.r, err = ev.splitBuild(split)
	case isSel && p.hint.FuseBuild:
		rExpr, p.fuse = sel.Child, sel.Cond
		fallthrough
	default:
		if t, err = ev.evalChild(rExpr); err == nil {
			p.r = sideOf(t)
			if isBase(rExpr) {
				p.r.stored = t
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if p.fuse != nil {
		// The planner only fuses scalar-free conditions; resolving is a
		// cheap no-op that keeps a hand-crafted hint from crashing.
		if p.fuse, err = ev.resolveScalars(p.fuse); err != nil {
			return nil, err
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
		if t, err = ev.filterTable(t, p.fuse); err != nil {
			return nil, err
		}
		p.r, p.fuse = sideOf(t), nil
	}
	// No hash key: conditions of the form (A = B OR B IS NULL) defeat
	// key extraction, per Section 7 of the paper. That very disjunct is a
	// unification edge, so the build side is indexed on it instead; the
	// nested loop remains for edge-free conditions and under NoHashJoin
	// (the paper's confused optimizer).
	if lc, rc, ok := SpanningUnifyEdge(cond, nL); ok && !ev.opts.NoHashJoin {
		if err := ev.chargeUnifyBuild("semijoin/build", p.r.len()); err != nil {
			return nil, err
		}
		p.idx = table.BuildIndex(t.Rows(), []int{rc}, table.NullsWild, 0, nil)
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
	ev.note("nested-loop %s vs %d rows", p.name, p.r.len())
	return p, nil
}

func isBase(e algebra.Expr) bool {
	_, ok := e.(algebra.Base)
	return ok
}

// buildSide is an (anti-)semijoin's build side, read in place: a
// table's rows, or a cached selection's rows followed by null-list rows
// (splitBuild). Position i is head's row i, then tail's.
type buildSide struct {
	head, tail []table.Row
	ar         int
	stored     *table.Table // the stored relation head is, if it is one
}

func sideOf(t *table.Table) buildSide { return buildSide{head: t.Rows(), ar: t.Arity()} }

func (b buildSide) len() int { return len(b.head) + len(b.tail) }

func (b buildSide) row(i int) table.Row {
	if i < len(b.head) {
		return b.head[i]
	}
	return b.tail[i-len(b.head)]
}

// splitBuild reads a build side in its two parts: the selection
// σ[θ](R), which an earlier operator of the plan drained into the view
// cache, then R's rows on the null lists of the split's columns.
func (ev *Evaluator) splitBuild(split *SplitBuild) (buildSide, error) {
	cached, err := ev.evalChild(split.Cached)
	if err != nil {
		return buildSide{}, err
	}
	_, nulls, err := ev.scan(split.Cached.Child.(algebra.Base), [][]int{split.Nulls})
	return buildSide{head: cached.Rows(), tail: nulls, ar: cached.Arity()}, err
}

// buildSemi indexes the build side of a hash (anti-)semijoin — the
// forward direction, taken when the probe side is not the smaller one.
//
// vetcert:ignore membalance: the index lives as long as the iterator
// probing it; semiProbeIter.close releases p.mem, a failed charge too.
func (ev *Evaluator) buildSemi(p *semiPlan) error {
	var fuseErr error
	var keep func(table.Row) bool
	if p.fuse != nil {
		keep = func(r table.Row) bool {
			pass, err := ev.passes(p.fuse, r)
			fuseErr = cmp.Or(fuseErr, err)
			return pass
		}
	}
	p.idx, p.probeCols = table.BuildIndexParts([][]table.Row{p.r.head, p.r.tail}, p.rCols, ev.eqNulls(), p.r.len(), keep), p.lCols
	if fuseErr != nil {
		return fuseErr
	}
	p.mem = p.idx.EstimatedBytes()
	if err := ev.gov.ChargeMem("semijoin/build", p.mem); err != nil {
		return err
	}
	ev.note("hash %s [%d keys] build %d rows (slim=%v fused=%v)",
		p.name, len(p.lCols), p.r.len(), p.hint.SlimVerify, p.fuse != nil)
	return ev.charge("semijoin/build", int64(p.r.len()))
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
	// Each R row is read through a gather of the columns the key, the
	// fused filter and the verify condition's build side use.
	cols := slices.Clone(p.rCols)
	for _, c := range algebra.ColsUsed(p.cond) {
		if c >= p.nL {
			cols = append(cols, c-p.nL)
		}
	}
	if p.fuse != nil {
		cols = append(cols, algebra.ColsUsed(p.fuse)...)
	}
	slices.Sort(cols)
	read := newGather(p.r.stored, slices.Compact(cols))
	workers := ev.opts.workers()
	matched, verified := make([][]bool, workers), make([][]int64, workers)
	var filtered atomic.Int64 // R rows put through the fused filter, for the trace
	err := ev.runChunks(p.r.len(), "semijoin/probe", func(c *chunk) error {
		if err := c.fault(guard.SiteSemijoinProbe); err != nil {
			return err
		}
		m, n := make([]bool, len(held)), make([]int64, len(held))
		matched[c.part], verified[c.part] = m, n
		row := c.scratch(p.nL + p.r.ar)
		ran := int64(0)
		for ri := c.lo; ri < c.hi; ri++ {
			if c.stopped() {
				return nil
			}
			rr := read.row(row[p.nL:], ri, p.r.row(ri))
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
	ev.note("hash %s [%d keys] build-left %d rows, streamed %d%s", p.name, len(p.lCols), len(held), p.r.len(), fused)
	return keptRows(held, keep), nil
}

// semiMatch probes one row against the plan. c supplies the worker's
// cost counters and its scratch buffers for the key and for candidate
// verification.
func (ev *Evaluator) semiMatch(p *semiPlan, c *chunk, lr table.Row) (bool, error) {
	row := c.scratch(p.nL + p.r.ar)
	if !p.trivial {
		copy(row, lr)
	}
	// Candidates come in ascending build order: the probe key's bucket,
	// merged with the wild rows of a unification edge — or, for a null
	// probe key on one, and for plans without an index, every build row.
	// The verify condition decides each; the first match ends the walk.
	cur := table.ScanCursor(p.r.len())
	if p.idx != nil {
		c.st.costUnits++
		cur = p.idx.Probe(lr, p.probeCols, &c.key)
	}
	for ri, ok := cur.Next(); ok; ri, ok = cur.Next() {
		if p.trivial { // slim verify with empty residual: key presence alone decides
			return true, nil
		}
		c.st.costUnits++
		copy(row[p.nL:], p.r.row(ri))
		if v, err := ev.evalCond(p.cond, row); v.IsTrue() || err != nil {
			return v.IsTrue(), err
		}
	}
	return false, nil
}

// probeSemi probes lRows against the plan and returns the qualifying
// rows in input order. The probe rows are independent, so the scan fans
// out across workers (keepRows) — the single largest lever on the
// Figure 4 / Q⁺4 cost — with deterministic results at any Parallelism.
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
