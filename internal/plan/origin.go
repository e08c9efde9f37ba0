package plan

import (
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/stats"
)

// colOrigin traces output column col of e back to a base-table column
// through operators that pass column values along unchanged: filters,
// projections, products, the left side of (anti-)semijoins and set
// differences, grouping keys, sorts and limits. It reports !ok for
// columns that are computed (aggregates), merged from two inputs
// (unions), or otherwise not attributable to a single stored column —
// statistics-based rules simply do not fire there.
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

// fromBase reports whether output column col of e traces to a column
// of a base relation in sch.
func fromBase(e algebra.Expr, sch *schema.Schema, col int) bool {
	tbl, bcol, ok := colOrigin(e, col)
	if !ok || sch == nil {
		return false
	}
	rel, ok := sch.Relation(tbl)
	return ok && bcol < rel.Arity()
}

// originStats returns the statistics of the base column that output
// column col of e traces to.
func originStats(e algebra.Expr, st *stats.DBStats, col int) (*stats.TableStats, int, bool) {
	tbl, bcol, ok := colOrigin(e, col)
	if !ok || st == nil {
		return nil, 0, false
	}
	ts := st.Table(tbl)
	if ts == nil || bcol >= len(ts.Cols) {
		return nil, 0, false
	}
	return ts, bcol, true
}
