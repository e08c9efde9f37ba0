package eval

import (
	"reflect"
	"slices"

	"certsql/internal/algebra"
)

// viewCacheMaxNodes bounds how large a subplan — measured in algebra
// operators plus condition nodes, scalar-subquery bodies included (see
// algebra.SizeAtMost) — may be and still participate in the
// shared-subplan (view) cache.
//
// Keying a subplan renders its canonical Key(), and the evaluator keys
// at every recursion level, so an uncapped policy re-renders each
// subtree once per ancestor: an O(size × depth) string-building cost
// paid on every execution, independent of the data. Cache hits, on the
// other hand, can only come from subtrees that appear more than once
// in the plan, and the Q⁺/Q⋆ translations duplicate only modest
// fragments (the largest repeated subplan across the study's appendix
// queries renders to 87 bytes). Skipping oversized subplans therefore
// keeps every profitable hit while dropping the quadratic rendering
// that dominated prepared-execution profiles.
const viewCacheMaxNodes = 24

// ViewKey returns the subplan-cache key for e, or "" when e is too
// large to participate in the cache.
func ViewKey(e algebra.Expr) string {
	if !algebra.SizeAtMost(e, viewCacheMaxNodes) {
		return ""
	}
	return e.Key()
}

// Views is what the view cache can do for one plan, decided when the
// plan is made (PlanViews) so that no execution of it walks it again.
type Views struct {
	// Shared is the view keys of the plan's subtrees with children
	// that occur more than once in it, scalar-subquery bodies
	// included; buildIter buffers those through the cache instead of
	// streaming them.
	Shared []string
	// NoHits records that no subplan of the plan can be served from the
	// cache: an execution of it caches nothing and renders no view key.
	NoHits bool
}

// PlanViews decides Views for e, the one expression an evaluator given
// them runs; splits are the cached selections its split build sides
// read (SemiHint.Split). Every subplan the executor drains
// is cached under its view key, so a hit needs a key drained twice. The
// subplans that may be drained are e's subtrees other than stored
// relations, the body of each distinct scalar subquery (a scalar's
// value is cached under its text, see scalarValue), each join block's
// filtered leaves and each split's cached selection, which counts as an
// occurrence too. A filtered leaf over a stored relation can only meet
// another selection over that relation, so leaves are keyed only for
// relations that carry at least two such selections; blocks holds the
// join blocks classified so far. NoHits is false whenever a hit is
// possible under some executor option.
func PlanViews(e algebra.Expr, blocks *JoinBlocks, splits ...algebra.Select) *Views {
	v := &viewScan{keys: map[string]viewUse{}, sites: map[string]int{}, classified: blocks}
	v.visit(e, true)
	for _, s := range splits {
		v.note(ViewKey(s), true, true)
		v.site(s.Child)
	}
	for _, b := range v.blocks {
		v.joinLeaves(b)
	}
	views := &Views{NoHits: !v.hit}
	for k, u := range v.keys {
		if u.count >= 2 {
			views.Shared = append(views.Shared, k)
		}
	}
	slices.Sort(views.Shared)
	return views
}

// viewScan is PlanViews' walk: what it found per view key, the scalars
// seen, per stored relation the selections over it, and the join blocks
// to look into.
type viewScan struct {
	keys       map[string]viewUse
	scalars    []algebra.Scalar
	sites      map[string]int
	blocks     []algebra.Select
	classified *JoinBlocks
	hit        bool
}

// viewUse is what viewScan found for one view key: how often it occurs
// as a subtree with children, and whether the executor may drain it.
type viewUse struct {
	count   int
	drained bool
}

// note records key k (when it is one): counted when it is a subtree
// with children, drained when the executor may drain it.
func (v *viewScan) note(k string, counted, drains bool) {
	if k == "" || !counted && !drains {
		return
	}
	u := v.keys[k]
	if counted {
		u.count++
	}
	if drains {
		v.hit = v.hit || u.drained
		u.drained = true
	}
	v.keys[k] = u
}

func (v *viewScan) drain(x algebra.Expr) { v.note(ViewKey(x), false, true) }

// visit walks x as algebra.Walk does, every occurrence of a scalar body
// included; drains is false inside the repeats of a scalar, which are
// never evaluated.
func (v *viewScan) visit(x algebra.Expr, drains bool) {
	kids, n := algebra.Children(x)
	switch {
	case n > 0:
		v.note(ViewKey(x), true, drains)
	case drains && !isBase(x): // an interior scan is served as the stored relation
		v.drain(x)
	}
	var cond algebra.Cond
	switch x := x.(type) { // vetcert:ignore famexhaustive: only these build subplans that are not subtrees, or hold scalars
	case algebra.Select:
		cond = x.Cond
		switch _, block := x.Child.(algebra.Product); {
		case !drains:
		case block:
			v.blocks = append(v.blocks, x)
			for _, l := range flattenProduct(x.Child) {
				v.site(l)
			}
		default:
			v.site(x.Child)
		}
	case algebra.SemiJoin:
		cond = x.Cond
	}
	if cond != nil && algebra.HasScalar(cond) {
		algebra.AnyOperand(cond, func(o algebra.Operand) bool {
			if s, ok := o.(algebra.Scalar); ok {
				// Equal scalars render alike, so this finds no fewer
				// repeats than scalarValue's cache, without rendering.
				first := !slices.ContainsFunc(v.scalars, func(t algebra.Scalar) bool { return reflect.DeepEqual(s, t) })
				if first {
					v.scalars = append(v.scalars, s)
				}
				v.visit(s.Sub, drains && first)
			}
			return false
		})
	}
	for _, k := range kids[:n] {
		v.visit(k, drains)
	}
}

// site counts a selection over leaf when leaf is a stored relation.
func (v *viewScan) site(leaf algebra.Expr) {
	if b, ok := leaf.(algebra.Base); ok {
		v.sites[b.Name]++
	}
}

// joinLeaves drains the filtered leaves planJoinBlock evaluates for the
// block sel, where one can meet another selection; a leaf without a
// filter is a subtree, drained by visit.
func (v *viewScan) joinLeaves(sel algebra.Select) {
	if v.hit {
		return // decided; only the Shared counts were still open
	}
	leaves := flattenProduct(sel.Child)
	meets := func(l algebra.Expr) bool {
		b, ok := l.(algebra.Base)
		return !ok || v.sites[b.Name] > 1
	}
	if !slices.ContainsFunc(leaves, meets) {
		return
	}
	for i, c := range v.classified.leafConds(sel.Cond, leaves) {
		if meets(leaves[i]) && c != nil {
			v.drain(algebra.Select{Child: leaves[i], Cond: c})
		}
	}
}

// Drains counts the places where evaluating e may drain sel into the
// view cache: its subtrees and, given blocks, its join blocks' filtered
// leaves equal to sel.
func Drains(e algebra.Expr, sel algebra.Select, blocks *JoinBlocks) (n int) {
	algebra.Walk(e, func(x algebra.Expr) {
		s, ok := x.(algebra.Select)
		if _, block := s.Child.(algebra.Product); !ok || !block || blocks == nil {
			if ok && sameSelect(s, sel) {
				n++
			}
			return
		}
		leaves := flattenProduct(s.Child)
		if !slices.ContainsFunc(leaves, func(leaf algebra.Expr) bool {
			b, ok := leaf.(algebra.Base)
			return !ok || b == sel.Child
		}) {
			return // no leaf can be filtered into sel: spare the classification
		}
		for i, c := range blocks.leafConds(s.Cond, leaves) {
			f, ok := leaves[i].(algebra.Select)
			if c != nil {
				f, ok = algebra.Select{Child: leaves[i], Cond: c}, true
			}
			if ok && sameSelect(f, sel) {
				n++
			}
		}
	})
	return n
}

// JoinBlocks remembers, for the length of one lowering, the filter
// JoinBlock.Leaf puts on each leaf of the join blocks Drains and
// PlanViews meet, so that each block is classified once. A block is
// known by its conjuncts' backing array, which nothing mutates, and its
// leaves' arities, which is all the classification reads; a condition
// that is not a conjunction is classified each time.
type JoinBlocks []classifiedBlock

type classifiedBlock struct {
	conds   []algebra.Cond
	arities []int
	leaf    []algebra.Cond // leaf i's filter in its own columns; nil for none
}

// leafConds returns the filter of each of leaves in the block σ[cond].
func (b *JoinBlocks) leafConds(cond algebra.Cond, leaves []algebra.Expr) []algebra.Cond {
	and, _ := cond.(algebra.And)
	for _, k := range *b {
		if len(and.Conds) == len(k.conds) && &k.conds[0] == &and.Conds[0] &&
			slices.EqualFunc(k.arities, leaves, func(a int, l algebra.Expr) bool { return a == l.Arity() }) {
			return k.leaf
		}
	}
	arities := make([]int, len(leaves))
	for i, l := range leaves {
		arities[i] = l.Arity()
	}
	jb := ClassifyJoinBlock(arities, cond)
	leaf := make([]algebra.Cond, len(leaves))
	for i, l := range leaves {
		if len(jb.Singles[i]) > 0 {
			leaf[i] = jb.Leaf(i, l).(algebra.Select).Cond
		}
	}
	if len(and.Conds) > 0 {
		*b = append(*b, classifiedBlock{and.Conds, arities, leaf})
	}
	return leaf
}

// sameSelect reports whether a and b are the same selection, looking at
// the stored relation they read, if any, first.
func sameSelect(a, b algebra.Select) bool {
	if ab, ok := a.Child.(algebra.Base); ok {
		return ab == b.Child && reflect.DeepEqual(a.Cond, b.Cond)
	}
	return reflect.DeepEqual(a, b)
}
