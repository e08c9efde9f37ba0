package analyze

import (
	"fmt"
	"strings"

	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/value"
)

// Diagnostic is one positioned certainty-hazard warning over SQL
// source text, for certlint.
type Diagnostic struct {
	Code string `json:"code"`
	Pos  int    `json:"offset"` // byte offset into the source; -1 when unknown
	Line int    `json:"line"`   // 1-based; 0 when Pos is unknown
	Col  int    `json:"col"`
	Msg  string `json:"message"`
}

// String renders the diagnostic in file:line:col style (without the
// file, which the caller prepends).
func (d Diagnostic) String() string {
	if d.Pos < 0 {
		return fmt.Sprintf("[%s] %s", d.Code, d.Msg)
	}
	return fmt.Sprintf("%d:%d: [%s] %s", d.Line, d.Col, d.Code, d.Msg)
}

// QueryReport is the result of the AST-level hazard analysis.
type QueryReport struct {
	// Safe reports that the walk found no hazards. The plan-level
	// verdict (Plan) is the authoritative one; this AST-level walk
	// exists to attach source positions and may be marginally more
	// conservative.
	Safe        bool
	Diagnostics []Diagnostic
}

// Query walks the parsed query and reports every construct where SQL's
// three-valued logic can produce non-certain answers (or miss certain
// ones), with byte positions pointing at the offending operator. src
// must be the text q was parsed from (for line:col rendering).
func Query(src string, q *sql.Query, sch *schema.Schema) *QueryReport {
	a := &queryAnalyzer{src: src, sch: sch, views: map[string]*viewInfo{}}
	a.analyzeQuery(q, nil)
	return &QueryReport{Safe: len(a.diags) == 0, Diagnostics: a.diags}
}

type colInfo struct {
	name    string
	nonNull bool
	kind    value.Kind
}

type viewInfo struct {
	cols  []colInfo
	rigid bool
}

type tableInScope struct {
	name  string
	cols  []colInfo
	rigid bool // the source relation/view cannot contain nulls
}

// frame is one block's name-resolution scope; outer chains to the
// enclosing block for correlated subqueries.
type frame struct {
	tables []tableInScope
	outer  *frame
}

// resolve finds ref in the frame chain; local reports whether it was
// found in f itself rather than an enclosing frame.
func (f *frame) resolve(ref sql.ColRef) (colInfo, bool, bool) {
	for cur := f; cur != nil; cur = cur.outer {
		for _, t := range cur.tables {
			if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, t.name) {
				continue
			}
			for _, c := range t.cols {
				if strings.EqualFold(c.name, ref.Name) {
					return c, cur == f, true
				}
			}
			if ref.Qualifier != "" {
				return colInfo{}, false, false
			}
		}
	}
	return colInfo{}, false, false
}

type queryAnalyzer struct {
	src   string
	sch   *schema.Schema
	views map[string]*viewInfo
	diags []Diagnostic
}

func (a *queryAnalyzer) diag(pos int, code, format string, args ...any) {
	d := Diagnostic{Code: code, Pos: pos, Msg: fmt.Sprintf(format, args...)}
	if pos >= 0 {
		d.Line, d.Col = sql.LineCol(a.src, pos)
	}
	a.diags = append(a.diags, d)
}

// analyzeQuery analyzes q (registering its WITH views) and returns the
// output column info of its body.
func (a *queryAnalyzer) analyzeQuery(q *sql.Query, outer *frame) []colInfo {
	saved := map[string]*viewInfo{}
	for _, cte := range q.With {
		name := strings.ToLower(cte.Name)
		saved[name] = a.views[name]
		cols := a.queryExpr(cte.Body, nil)
		a.views[name] = &viewInfo{cols: cols, rigid: a.rigidQueryExpr(cte.Body, nil)}
	}
	out := a.queryExpr(q.Body, outer)
	for name, prev := range saved {
		if prev == nil {
			delete(a.views, name)
		} else {
			a.views[name] = prev
		}
	}
	return out
}

func (a *queryAnalyzer) queryExpr(qe sql.QueryExpr, outer *frame) []colInfo {
	switch qe := qe.(type) {
	case sql.SetOp:
		l := a.queryExpr(qe.L, outer)
		r := a.queryExpr(qe.R, outer)
		switch qe.Op {
		case sql.OpExcept:
			if !a.rigidQueryExpr(qe.R, outer) {
				a.diag(qe.Pos, "except-nullable",
					"EXCEPT excludes rows by matches in a subquery that can contain NULLs; a possible match is not a certain exclusion")
			}
			for _, c := range l {
				if !c.nonNull {
					a.diag(qe.Pos, "except-nullable",
						"EXCEPT over a left side whose column %s can be NULL; a marked row's exclusion depends on how its nulls are interpreted", nameOr(c.name, "?"))
					break
				}
			}
			return l
		case sql.OpIntersect:
			out := mergeCols(l, r, func(x, y bool) bool { return x || y })
			return out
		default: // union
			return mergeCols(l, r, func(x, y bool) bool { return x && y })
		}
	case *sql.SelectStmt:
		return a.selectStmt(qe, outer)
	default:
		return nil
	}
}

func mergeCols(l, r []colInfo, nonNull func(a, b bool) bool) []colInfo {
	out := make([]colInfo, len(l))
	copy(out, l)
	for i := range out {
		if i < len(r) {
			out[i].nonNull = nonNull(l[i].nonNull, r[i].nonNull)
			if r[i].kind != l[i].kind {
				out[i].kind = value.KindNull // kinds disagree: unknown
			}
		}
	}
	return out
}

func nameOr(name, alt string) string {
	if name == "" {
		return alt
	}
	return name
}

func (a *queryAnalyzer) selectStmt(s *sql.SelectStmt, outer *frame) []colInfo {
	f := &frame{outer: outer}
	for _, t := range s.From {
		f.tables = append(f.tables, a.tableScope(t))
	}
	if s.Where != nil {
		a.cond(s.Where, f, false)
	}
	if s.Having != nil {
		a.cond(s.Having, f, false)
	}

	var out []colInfo
	if s.Star {
		for _, t := range f.tables {
			out = append(out, t.cols...)
		}
		return out
	}
	for _, it := range s.Items {
		cl := a.classifyExpr(it.Expr, f)
		name := ""
		if ref, ok := it.Expr.(sql.ColRef); ok {
			name = ref.Name
		}
		out = append(out, colInfo{name: name, nonNull: cl.class == classConst, kind: cl.kind})
	}
	return out
}

// tableScope resolves one FROM item against the schema or the WITH
// views in scope.
func (a *queryAnalyzer) tableScope(t sql.TableRef) tableInScope {
	if v, ok := a.views[strings.ToLower(t.Table)]; ok {
		return tableInScope{name: t.Name(), cols: v.cols, rigid: v.rigid}
	}
	if a.sch != nil {
		if rel, ok := a.sch.Relation(t.Table); ok {
			ts := tableInScope{name: t.Name(), rigid: true}
			for _, attr := range rel.Attrs {
				ts.cols = append(ts.cols, colInfo{name: attr.Name, nonNull: !attr.Nullable, kind: attr.Type})
				if attr.Nullable {
					ts.rigid = false
				}
			}
			return ts
		}
	}
	a.diag(-1, "unknown-relation", "relation %s is not in the schema; its nullability is unknown", t.Table)
	return tableInScope{name: t.Name()}
}

// classification carries the operand class plus rendering context.
type classification struct {
	class opClass
	kind  value.Kind
	code  string // hazard code when class == classHazard
	msg   string
}

func (a *queryAnalyzer) classifyExpr(e sql.Expr, f *frame) classification {
	switch e := e.(type) {
	case sql.ColRef:
		c, _, ok := f.resolve(e)
		if !ok {
			return classification{class: classHazard, code: "unresolved-column", msg: fmt.Sprintf("column %s cannot be resolved", refString(e))}
		}
		if c.nonNull {
			return classification{class: classConst, kind: c.kind}
		}
		return classification{class: classNullableCol, kind: c.kind, msg: fmt.Sprintf("column %s can be NULL", refString(e))}
	case sql.NumLit, sql.StrLit:
		return classification{class: classConst}
	case sql.NullLit:
		return classification{class: classHazard, code: "null-literal", msg: "a NULL literal never compares as certainly true or certainly false"}
	case sql.Param:
		// Parameters bind to constants at execution time; binding NULL
		// through a parameter is outside what the analysis models.
		return classification{class: classConst}
	case sql.Concat:
		for _, p := range e.Parts {
			if cl := a.classifyExpr(p, f); cl.class != classConst {
				cl.msg = "string concatenation over an operand that can be NULL"
				if cl.class == classNullableCol {
					return classification{class: classHazard, code: "cmp-nullable", msg: cl.msg}
				}
				return cl
			}
		}
		return classification{class: classConst, kind: value.KindString}
	case sql.AggCall:
		if e.Func == "COUNT" {
			return classification{class: classConst, kind: value.KindInt}
		}
		return classification{class: classHazard, code: "aggregate-nullable",
			msg: fmt.Sprintf("%s can be NULL over an empty input", e.Func)}
	case sql.SubqueryExpr:
		rigid := a.scalarRigid(e.Q, f)
		a.analyzeSubquery(e.Q, f) // surface the subquery's own hazards too
		if rigid {
			return classification{class: classConst, kind: value.KindInt}
		}
		return classification{class: classHazard, code: "scalar-subquery",
			msg: "scalar subquery is not a rigid constant (it reads nullable data or can itself be NULL)"}
	default:
		return classification{class: classHazard, code: "unknown-operand", msg: fmt.Sprintf("unsupported operand %T", e)}
	}
}

func refString(e sql.ColRef) string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}

func kindFinite(k value.Kind) bool {
	return k == value.KindBool || k == value.KindNull
}

// cond walks a condition; neg tracks whether the context negates it
// (an odd number of enclosing NOTs), which turns = into <> and IN into
// NOT IN for hazard purposes.
func (a *queryAnalyzer) cond(e sql.Expr, f *frame, neg bool) {
	switch e := e.(type) {
	case sql.AndExpr:
		a.cond(e.L, f, neg)
		a.cond(e.R, f, neg)
	case sql.OrExpr:
		a.cond(e.L, f, neg)
		a.cond(e.R, f, neg)
	case sql.NotExpr:
		a.cond(e.E, f, !neg)
	case sql.CmpExpr:
		a.cmp(e.Pos, e.Op, e.L, e.R, f, neg)
	case sql.LikeExpr:
		a.likeAtom(e, f)
	case sql.IsNullExpr:
		cl := a.classifyExpr(e.E, f)
		switch cl.class {
		case classConst:
			// rigid constant — nothing to flag
		case classHazard:
			a.diag(e.Pos, cl.code, "%s", cl.msg)
		case classNullableCol:
			a.diag(e.Pos, "null-test-nullable",
				"IS [NOT] NULL on %s; the test's outcome differs between the marked row and its valuations", nullableWhat(cl))
		}
	case sql.InExpr:
		a.inAtom(e, f, neg)
	case sql.ExistsExpr:
		effNeg := neg != e.Negated
		if effNeg && !a.rigidQuery(e.Sub, f) {
			a.diag(e.Pos, "not-exists-nullable",
				"NOT EXISTS over a subquery that can contain NULLs (or that reads nullable outer columns); a possible match must block the outer row, so plain evaluation may keep non-certain answers")
		}
		a.analyzeSubquery(e.Sub, f)
	default:
		// A value-shaped expression (column, literal, …) in condition
		// position — the parser does not produce these today, so flag
		// conservatively rather than vouch for an unknown shape.
		a.diag(-1, "unknown-atom", "unsupported condition %T; treated as a certainty hazard", e)
	}
}

func nullableWhat(cl classification) string {
	if cl.msg != "" {
		return strings.TrimSuffix(cl.msg, " can be NULL") + " (which can be NULL)"
	}
	return "a nullable operand"
}

func (a *queryAnalyzer) cmp(pos int, op string, l, r sql.Expr, f *frame, neg bool) {
	if neg {
		op = negateCmpOp(op)
	}
	lc := a.classifyExpr(l, f)
	rc := a.classifyExpr(r, f)
	for _, cl := range []classification{lc, rc} {
		if cl.class == classHazard {
			a.diag(pos, cl.code, "in comparison: %s", cl.msg)
		}
	}
	if lc.class == classHazard || rc.class == classHazard {
		return
	}
	if op == "=" {
		if lc.class == classNullableCol && rc.class == classNullableCol {
			a.diag(pos, "eq-nullable-pair",
				"= compares two operands that can both be NULL; equal marks are certainly equal but never SQL-equal")
			return
		}
		for _, cl := range []classification{lc, rc} {
			if cl.class == classNullableCol && kindFinite(cl.kind) {
				a.diag(pos, "eq-finite",
					"= over a nullable %s operand; its finite domain lets certainty arise from a case split plain evaluation misses", cl.kind)
			}
		}
		return
	}
	for _, cl := range []classification{lc, rc} {
		if cl.class == classNullableCol {
			a.diag(pos, "cmp-nullable",
				"%s over %s; the comparison is neither certainly true nor certainly false on marked rows", op, nullableWhat(cl))
		}
	}
}

func negateCmpOp(op string) string {
	switch op {
	case "=":
		return "<>"
	case "<>":
		return "="
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<"
	default: // >=
		return "<"
	}
}

func (a *queryAnalyzer) likeAtom(e sql.LikeExpr, f *frame) {
	lc := a.classifyExpr(e.L, f)
	pc := a.classifyExpr(e.Pattern, f)
	switch lc.class {
	case classConst:
		// rigid constant — nothing to flag
	case classHazard:
		a.diag(e.Pos, lc.code, "in LIKE: %s", lc.msg)
	case classNullableCol:
		a.diag(e.Pos, "like-nullable",
			"LIKE over %s (every value matches '%%' under some valuation)", nullableWhat(lc))
	}
	switch pc.class {
	case classConst:
		// rigid constant — nothing to flag
	case classHazard:
		a.diag(e.Pos, pc.code, "in LIKE pattern: %s", pc.msg)
	case classNullableCol:
		a.diag(e.Pos, "like-nullable", "LIKE with a pattern that can be NULL")
	}
}

func (a *queryAnalyzer) inAtom(e sql.InExpr, f *frame, neg bool) {
	effNeg := neg != e.Negated
	if e.Sub != nil {
		cl := a.classifyExpr(e.E, f)
		if effNeg {
			if cl.class != classConst || !a.rigidQuery(e.Sub, f) {
				a.diag(e.Pos, "not-in-nullable",
					"NOT IN over a tested value or subquery that can contain NULLs; a possible match must block the outer row")
			}
		} else {
			sub := a.analyzeSubquery(e.Sub, f)
			var subCol classification
			if len(sub) > 0 {
				subCol = classification{class: classNullableCol, kind: sub[0].kind, msg: "the subquery's output column can be NULL"}
				if sub[0].nonNull {
					subCol = classification{class: classConst, kind: sub[0].kind}
				}
				a.eqPair(e.Pos, cl, subCol)
			}
			return
		}
		a.analyzeSubquery(e.Sub, f)
		return
	}
	// IN (list) is a disjunction of equalities (a conjunction of
	// inequalities when negated).
	cl := a.classifyExpr(e.E, f)
	for _, item := range e.List {
		ic := a.classifyExpr(item, f)
		if effNeg {
			for _, c := range []classification{cl, ic} {
				switch c.class {
				case classConst:
					// rigid constant — nothing to flag
				case classHazard:
					a.diag(e.Pos, c.code, "in NOT IN list: %s", c.msg)
				case classNullableCol:
					a.diag(e.Pos, "not-in-nullable",
						"NOT IN over %s; the exclusion depends on how its nulls are interpreted", nullableWhat(c))
				}
			}
			continue
		}
		a.eqPair(e.Pos, cl, ic)
	}
}

// eqPair applies the equality-atom rule to a classified pair.
func (a *queryAnalyzer) eqPair(pos int, lc, rc classification) {
	for _, cl := range []classification{lc, rc} {
		if cl.class == classHazard {
			a.diag(pos, cl.code, "in comparison: %s", cl.msg)
		}
	}
	if lc.class == classHazard || rc.class == classHazard {
		return
	}
	if lc.class == classNullableCol && rc.class == classNullableCol {
		a.diag(pos, "eq-nullable-pair",
			"equality between two operands that can both be NULL; equal marks are certainly equal but never SQL-equal")
		return
	}
	for _, cl := range []classification{lc, rc} {
		if cl.class == classNullableCol && kindFinite(cl.kind) {
			a.diag(pos, "eq-finite",
				"equality over a nullable %s operand; its finite domain lets certainty arise from a case split plain evaluation misses", cl.kind)
		}
	}
}

// analyzeSubquery analyzes a subquery in a fresh frame chained to the
// enclosing one (for correlated references) and returns its output
// columns.
func (a *queryAnalyzer) analyzeSubquery(q *sql.Query, f *frame) []colInfo {
	return a.analyzeQuery(q, f)
}

// scalarRigid reports whether a scalar subquery is a rigid non-null
// constant: a COUNT over null-free data with no nullable outer
// references.
func (a *queryAnalyzer) scalarRigid(q *sql.Query, f *frame) bool {
	sel, ok := q.Body.(*sql.SelectStmt)
	if !ok || len(sel.Items) != 1 {
		return false
	}
	agg, ok := sel.Items[0].Expr.(sql.AggCall)
	if !ok || agg.Func != "COUNT" {
		return false
	}
	return a.rigidQuery(q, f)
}

// rigidQuery reports whether the subquery's result is the same on
// every valuation of the database's nulls: all relations it reads are
// null-free, every correlated outer column it references is non-null,
// and its conditions contain no NULL literals or non-rigid scalars.
func (a *queryAnalyzer) rigidQuery(q *sql.Query, outer *frame) bool {
	saved := map[string]*viewInfo{}
	rigid := true
	for _, cte := range q.With {
		name := strings.ToLower(cte.Name)
		saved[name] = a.views[name]
		cols := a.silently(func() []colInfo { return a.queryExpr(cte.Body, nil) })
		a.views[name] = &viewInfo{cols: cols, rigid: a.rigidQueryExpr(cte.Body, nil)}
	}
	rigid = a.rigidQueryExpr(q.Body, outer)
	for name, prev := range saved {
		if prev == nil {
			delete(a.views, name)
		} else {
			a.views[name] = prev
		}
	}
	return rigid
}

// silently runs fn while discarding any diagnostics it would add
// (rigidity probing must not duplicate the main walk's output).
func (a *queryAnalyzer) silently(fn func() []colInfo) []colInfo {
	n := len(a.diags)
	out := fn()
	a.diags = a.diags[:n]
	return out
}

func (a *queryAnalyzer) rigidQueryExpr(qe sql.QueryExpr, outer *frame) bool {
	switch qe := qe.(type) {
	case sql.SetOp:
		return a.rigidQueryExpr(qe.L, outer) && a.rigidQueryExpr(qe.R, outer)
	case *sql.SelectStmt:
		f := &frame{outer: outer}
		for _, t := range qe.From {
			ts := a.silentTableScope(t)
			if !ts.rigid {
				return false
			}
			f.tables = append(f.tables, ts)
		}
		for _, w := range []sql.Expr{qe.Where, qe.Having} {
			if w != nil && !a.rigidCondExpr(w, f) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// silentTableScope is tableScope without the unknown-relation
// diagnostic (rigidity probing treats unknown relations as nullable).
func (a *queryAnalyzer) silentTableScope(t sql.TableRef) tableInScope {
	n := len(a.diags)
	ts := a.tableScope(t)
	if len(a.diags) > n {
		a.diags = a.diags[:n]
		ts.rigid = false
	}
	return ts
}

func (a *queryAnalyzer) rigidCondExpr(e sql.Expr, f *frame) bool {
	switch e := e.(type) {
	case nil:
		return true
	case sql.AndExpr:
		return a.rigidCondExpr(e.L, f) && a.rigidCondExpr(e.R, f)
	case sql.OrExpr:
		return a.rigidCondExpr(e.L, f) && a.rigidCondExpr(e.R, f)
	case sql.NotExpr:
		return a.rigidCondExpr(e.E, f)
	case sql.CmpExpr:
		return a.rigidOperand(e.L, f) && a.rigidOperand(e.R, f)
	case sql.LikeExpr:
		return a.rigidOperand(e.L, f) && a.rigidOperand(e.Pattern, f)
	case sql.IsNullExpr:
		return a.rigidOperand(e.E, f)
	case sql.InExpr:
		if !a.rigidOperand(e.E, f) {
			return false
		}
		for _, item := range e.List {
			if !a.rigidOperand(item, f) {
				return false
			}
		}
		if e.Sub != nil {
			return a.rigidQuery(e.Sub, f)
		}
		return true
	case sql.ExistsExpr:
		return a.rigidQuery(e.Sub, f)
	default:
		return false
	}
}

func (a *queryAnalyzer) rigidOperand(e sql.Expr, f *frame) bool {
	switch e := e.(type) {
	case sql.ColRef:
		// Local columns are non-null already (the FROM sources are
		// null-free); outer references must be provably non-null too.
		c, local, ok := f.resolve(e)
		if !ok {
			return false
		}
		return local || c.nonNull
	case sql.NumLit, sql.StrLit, sql.Param:
		return true
	case sql.NullLit:
		return false
	case sql.Concat:
		for _, p := range e.Parts {
			if !a.rigidOperand(p, f) {
				return false
			}
		}
		return true
	case sql.AggCall:
		// Inside a rigid (null-free) block an aggregate is a fixed
		// value; COUNT is additionally never NULL, which is all the
		// EXISTS-style rigidity needs.
		if e.Arg != nil {
			return a.rigidOperand(e.Arg, f)
		}
		return true
	case sql.SubqueryExpr:
		return a.rigidQuery(e.Q, f)
	default:
		return false
	}
}
