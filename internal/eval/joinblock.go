package eval

import (
	"slices"

	"certsql/internal/algebra"
)

// JoinBlock is the classified condition of σ_cond(leaf₀ × leaf₁ × …),
// the shape SELECT-FROM-WHERE blocks compile to: single-leaf conjuncts
// filter their leaf first; pure equality conjuncts across two leaves
// are hash-join edges; everything else (including OR-disjunctions — the
// shape that defeats real optimizers in Section 7 of the paper) is a
// residual, applied once its leaves are joined or, when it is a
// unification edge, run on a wild-bucket index. The executor
// (planJoinBlock) and the planner's cost model both derive the join
// order from it, so the model prices the steps the executor takes.
type JoinBlock struct {
	// Singles holds, per leaf, the conjuncts over that leaf alone, in
	// canonical column positions.
	Singles [][]algebra.Cond

	offsets   []int // each leaf's first canonical column, then the total arity
	owner     []int // each canonical column's leaf
	edges     []joinEdge
	residuals []algebra.Cond
	strict    []int // strictCols, once implies has asked
}

// joinEdge is a pure column-to-column equality conjunct usable as a hash
// key, expressed in canonical (pre-join) column positions.
type joinEdge struct {
	leafA, leafB int
	colA, colB   int // canonical positions, colA in leafA and colB in leafB
}

// ClassifyJoinBlock classifies cond over leaves of the given arities.
func ClassifyJoinBlock(arities []int, cond algebra.Cond) *JoinBlock {
	n := len(arities)
	jb := &JoinBlock{offsets: make([]int, n+1), Singles: make([][]algebra.Cond, n)}
	for i, a := range arities {
		jb.offsets[i+1] = jb.offsets[i] + a
	}
	jb.owner = make([]int, 0, jb.offsets[n])
	for i, a := range arities {
		for range a {
			jb.owner = append(jb.owner, i)
		}
	}
	if !algebra.NNFIsIdentity(cond) {
		cond = algebra.NNF(cond)
	}
	for _, c := range algebra.Conjuncts(cond) {
		leaf, many := -1, false // the leaf of c's first column; whether another leaf's column follows
		algebra.AnyOperand(c, func(o algebra.Operand) bool {
			if col, ok := o.(algebra.Col); ok {
				if l := jb.owner[col.Idx]; leaf < 0 {
					leaf = l
				} else if l != leaf {
					many = true
				}
			}
			return many
		})
		switch {
		case leaf < 0:
			jb.residuals = append(jb.residuals, c) // constant or scalar-only condition
		case !many:
			jb.Singles[leaf] = append(jb.Singles[leaf], c)
		default:
			// Two column operands of different leaves touch exactly two.
			if cmp, ok := c.(algebra.Cmp); ok && cmp.Op == algebra.EQ {
				lc, lok := cmp.L.(algebra.Col)
				rc, rok := cmp.R.(algebra.Col)
				if lok && rok {
					jb.edges = append(jb.edges, joinEdge{leafA: jb.owner[lc.Idx], colA: lc.Idx, leafB: jb.owner[rc.Idx], colB: rc.Idx})
					continue
				}
			}
			jb.residuals = append(jb.residuals, c)
		}
	}
	return jb
}

// implies reports whether col is one of strictCols, which it computes
// on first use: only a const(x) guard asks (dropGuards).
func (jb *JoinBlock) implies(col int) bool {
	if jb.strict == nil {
		jb.strict = append(jb.strictCols(), -1) // never a column: marks them computed
	}
	return slices.Contains(jb.strict, col)
}

// strictCols returns the canonical columns that a comparison or LIKE
// conjunct of the block reads directly, the edges' columns included:
// under SQL3VL none of them is null in a row the block outputs.
func (jb *JoinBlock) strictCols() []int {
	cols := strictCols(jb.residuals)
	for _, s := range jb.Singles {
		cols = append(cols, strictCols(s)...)
	}
	for _, e := range jb.edges {
		cols = append(cols, e.colA, e.colB)
	}
	return cols
}

// JoinKind names how a step joins its leaf to the leaves before it.
type JoinKind int

const (
	// JoinStart is the first step: the leaf the block starts from.
	JoinStart JoinKind = iota
	// JoinHash is a hash join on the step's equality edges.
	JoinHash
	// JoinWildHash runs a residual unification edge on a wild-bucket
	// index of the leaf (wildStep).
	JoinWildHash
	// JoinProduct is a Cartesian step: no edge connects the leaf.
	JoinProduct
)

// JoinStep is one step of a join block's greedy order.
type JoinStep struct {
	Leaf int
	Kind JoinKind
	// ProbeCol and BuildCol are a JoinWildHash step's edge columns in
	// canonical positions: ProbeCol among the leaves already joined,
	// BuildCol in Leaf.
	ProbeCol, BuildCol int

	edges []int // JoinHash: the connecting edges
	unify int   // JoinWildHash: the residual run as the edge
}

// Order returns the greedy join order for the given (filtered) leaf
// sizes: start at the smallest leaf and grow via hash edges, smallest
// connected leaf first; with no connecting hash edge, take the smallest
// remaining leaf — on a unification edge from the joined set when a
// residual offers one, as a Cartesian step otherwise. The leaf choice of
// those two is deliberately the same: product-then-filter and the
// wild-bucket index agree on rows and order only step for step. Ties go
// to the lower leaf index. The order depends on nothing but the sizes,
// so it is the same pure function for the executor and the cost model.
func (jb *JoinBlock) Order(size func(leaf int) float64) []JoinStep {
	n := len(jb.Singles)
	smallest := func(eligible func(leaf int) bool) int {
		best := -1
		for i := 0; i < n; i++ {
			if eligible(i) && (best == -1 || size(i) < size(best)) {
				best = i
			}
		}
		return best
	}
	joined := make([]bool, n)
	usedEdge := make([]bool, len(jb.edges))
	steps := make([]JoinStep, 0, n)
	add := func(st JoinStep) {
		joined[st.Leaf] = true
		steps = append(steps, st)
	}
	add(JoinStep{Leaf: smallest(func(int) bool { return true })})
	for len(steps) < n {
		// Edges from the joined set to each candidate leaf.
		cand := make([][]int, n)
		for ei, e := range jb.edges {
			switch {
			case usedEdge[ei]:
			case joined[e.leafA] && !joined[e.leafB]:
				cand[e.leafB] = append(cand[e.leafB], ei)
			case joined[e.leafB] && !joined[e.leafA]:
				cand[e.leafA] = append(cand[e.leafA], ei)
			}
		}
		if next := smallest(func(i int) bool { return len(cand[i]) > 0 }); next >= 0 {
			for _, ei := range cand[next] {
				usedEdge[ei] = true
			}
			add(JoinStep{Leaf: next, Kind: JoinHash, edges: cand[next]})
			continue
		}
		st := JoinStep{Leaf: smallest(func(i int) bool { return !joined[i] }), Kind: JoinProduct}
		for ri, c := range jb.residuals {
			a, b, ok := unifyEdgeOf(c)
			if !ok {
				continue
			}
			if !joined[jb.owner[a]] { // orient: a already joined, b pending
				a, b = b, a
			}
			if joined[jb.owner[a]] && jb.owner[b] == st.Leaf {
				st.Kind, st.unify, st.ProbeCol, st.BuildCol = JoinWildHash, ri, a, b
				break
			}
		}
		add(st)
	}
	return steps
}

// Conds returns the conjuncts a step joins on, in canonical column
// positions: a hash step's equality edges, a wild-hash step's
// unification edge, nothing for the start and for a Cartesian step.
func (jb *JoinBlock) Conds(st JoinStep) []algebra.Cond {
	var out []algebra.Cond
	for _, ei := range st.edges {
		e := jb.edges[ei]
		out = append(out, algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: e.colA}, R: algebra.Col{Idx: e.colB}})
	}
	if st.Kind == JoinWildHash {
		out = append(out, jb.residuals[st.unify])
	}
	return out
}
