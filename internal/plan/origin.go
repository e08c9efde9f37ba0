package plan

import (
	"strings"

	"certsql/internal/algebra"
)

// colOrigin traces output column col of e back to a base-table column
// through operators that pass column values along unchanged: filters,
// projections, products, the left side of (anti-)semijoins and set
// differences, grouping keys, sorts and limits. It reports !ok for
// columns that are computed (aggregates), merged from two inputs
// (unions), or otherwise not attributable to a single stored column —
// the cost model prices those with its defaults.
func colOrigin(e algebra.Expr, col int) (tbl string, bcol int, ok bool) {
	for {
		if col < 0 || col >= e.Arity() {
			return "", 0, false
		}
		switch n := e.(type) {
		case algebra.Base:
			return strings.ToLower(n.Name), col, true
		case algebra.Select:
			e = n.Child
		case algebra.Project:
			col = n.Cols[col]
			e = n.Child
		case algebra.Product:
			if col < n.L.Arity() {
				e = n.L
			} else {
				col -= n.L.Arity()
				e = n.R
			}
		case algebra.SemiJoin:
			e = n.L
		case algebra.UnifySemi:
			e = n.L
		case algebra.Diff:
			e = n.L
		case algebra.Intersect:
			e = n.L
		case algebra.Distinct:
			e = n.Child
		case algebra.Sort:
			e = n.Child
		case algebra.Limit:
			e = n.Child
		case algebra.GroupBy:
			if col >= len(n.Keys) {
				return "", 0, false // aggregate output, not a stored column
			}
			col = n.Keys[col]
			e = n.Child
		default:
			return "", 0, false
		}
	}
}
