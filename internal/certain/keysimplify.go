package certain

import (
	"strings"

	"certsql/internal/algebra"
)

// keySimplify applies the observation in Section 7 of the paper: if R
// is a relation with a key and S ⊆ R, then R ⋉̸⇑ S = R − S. The
// unification anti-semijoin produced by the translation of difference
// can then run as a plain set difference — in the paper's Q⁺3 this is
// what turns the translation back into an ordinary NOT EXISTS query.
//
// The subset premise is established syntactically: S provably produces
// rows of R when it is (a chain of selections, distinctions,
// intersections or semijoins over) a projection of a product that
// projects out exactly one occurrence of R's full column block, or R
// itself.
func (t *Translator) keySimplify(e algebra.Expr) algebra.Expr {
	switch e := e.(type) {
	case algebra.UnifySemi:
		l := t.keySimplify(e.L)
		r := t.keySimplify(e.R)
		if e.Anti {
			if base, ok := l.(algebra.Base); ok && t.hasKey(base.Name) && t.producesRowsOf(r, base) {
				return algebra.Diff{L: l, R: r}
			}
		}
		return algebra.UnifySemi{L: l, R: r, Anti: e.Anti}
	default:
		return algebra.MapChildren(e, t.keySimplify)
	}
}

func (t *Translator) hasKey(rel string) bool {
	r, ok := t.Sch.Relation(rel)
	return ok && r.HasKey()
}

// producesRowsOf reports whether every row of e is (syntactically
// guaranteed to be) a row of the base relation b.
func (t *Translator) producesRowsOf(e algebra.Expr, b algebra.Base) bool {
	switch e := e.(type) {
	case algebra.Base:
		return strings.EqualFold(e.Name, b.Name)
	case algebra.Select:
		return t.producesRowsOf(e.Child, b)
	case algebra.Distinct:
		return t.producesRowsOf(e.Child, b)
	case algebra.SemiJoin:
		return t.producesRowsOf(e.L, b)
	case algebra.UnifySemi:
		return t.producesRowsOf(e.L, b)
	case algebra.Diff:
		return t.producesRowsOf(e.L, b)
	case algebra.Intersect:
		return t.producesRowsOf(e.L, b) || t.producesRowsOf(e.R, b)
	case algebra.Union:
		return t.producesRowsOf(e.L, b) && t.producesRowsOf(e.R, b)
	case algebra.Project:
		// The projection must select exactly the column block of one
		// occurrence of b in a product chain under (selections over)
		// the child.
		start, ok := contiguousBlock(e.Cols)
		if !ok {
			return false
		}
		return blockIsBase(e.Child, start, b)
	default:
		return false
	}
}

// contiguousBlock reports whether cols is i, i+1, …, i+k-1 and returns i.
func contiguousBlock(cols []int) (int, bool) {
	if len(cols) == 0 {
		return 0, false
	}
	for j := 1; j < len(cols); j++ {
		if cols[j] != cols[0]+j {
			return 0, false
		}
	}
	return cols[0], true
}

// blockIsBase reports whether, in the product structure under e
// (ignoring selections), the columns [start, start+b.Cols) are exactly
// one occurrence of base relation b.
func blockIsBase(e algebra.Expr, start int, b algebra.Base) bool {
	for {
		if sel, ok := e.(algebra.Select); ok {
			e = sel.Child
			continue
		}
		if sj, ok := e.(algebra.SemiJoin); ok {
			e = sj.L
			continue
		}
		break
	}
	switch e := e.(type) {
	case algebra.Base:
		return start == 0 && strings.EqualFold(e.Name, b.Name) && e.Cols == b.Cols
	case algebra.Product:
		if start < e.L.Arity() {
			return start+b.Cols <= e.L.Arity() && blockIsBase(e.L, start, b)
		}
		return blockIsBase(e.R, start-e.L.Arity(), b)
	default:
		return false
	}
}
