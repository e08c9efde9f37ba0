// Package compile translates SQL ASTs into relational algebra.
//
// The translation follows the standard textbook scheme (the paper cites
// Van den Bussche & Vansummeren's course notes for the full version):
// each SELECT-FROM-WHERE block becomes a selection over the Cartesian
// product of its FROM items, (NOT) EXISTS and (NOT) IN subqueries become
// (anti-)semijoins whose condition spans the concatenated outer and
// inner tuples, and the select list becomes a projection. WITH views
// compile once and are referenced structurally (the evaluator's subplan
// cache makes repeated references cheap, mirroring the paper's use of
// WITH to factor shared subqueries in Q⁺4).
//
// NOT IN receives SQL's actual semantics: `x NOT IN (sub)` keeps a row
// only when every comparison is false, which the compiler expresses as
// an antijoin on the weakened condition (x = y OR x IS NULL OR y IS
// NULL) — an antijoin finding a true disjunct is exactly a comparison
// that is true or unknown.
package compile

import (
	"fmt"
	"strconv"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/value"
)

// Params binds $name parameters to values. Accepted kinds per entry:
// value.Value, []value.Value (for IN lists), string, int, int64,
// float64, bool.
type Params map[string]any

// Compiled is the result of compiling a query.
type Compiled struct {
	Expr    algebra.Expr
	Columns []string
}

// Compile translates q over the given schema with the given parameter
// bindings.
func Compile(q *sql.Query, sch *schema.Schema, params Params) (*Compiled, error) {
	c := &compiler{sch: sch, params: params, views: map[string]*Compiled{}}
	return c.compileQuery(q, nil)
}

type compiler struct {
	sch    *schema.Schema
	params Params
	views  map[string]*Compiled
}

// scopeEntry is one FROM item in scope: its visible name, column names,
// and the offset of its first column in the enclosing tuple.
type scopeEntry struct {
	name   string
	attrs  []string
	offset int
}

// scope is a name-resolution environment. outer is the enclosing block's
// scope (for correlated subqueries); when resolving through it, column
// indexes are reported as negative "outer handles" translated by the
// caller — here instead we keep absolute indexes and let the block
// compiler choose offsets, so scope simply records entries.
type scope struct {
	entries []scopeEntry
	outer   *scope
}

// resolve returns the absolute column index for a reference and whether
// it was found in this scope (as opposed to an enclosing one).
func (s *scope) resolve(ref sql.ColRef) (idx int, local bool, err error) {
	for _, e := range s.entries {
		if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, e.name) {
			continue
		}
		for i, a := range e.attrs {
			if strings.EqualFold(a, ref.Name) {
				return e.offset + i, true, nil
			}
		}
		if ref.Qualifier != "" {
			return 0, false, fmt.Errorf("compile: column %s not found in %s", ref.Name, e.name)
		}
	}
	if s.outer != nil {
		idx, _, err := s.outer.resolve(ref)
		return idx, false, err
	}
	if ref.Qualifier != "" {
		return 0, false, fmt.Errorf("compile: unknown table or alias %q", ref.Qualifier)
	}
	return 0, false, fmt.Errorf("compile: unknown column %q", ref.Name)
}

func (c *compiler) compileQuery(q *sql.Query, outer *scope) (*Compiled, error) {
	saved := map[string]*Compiled{}
	for name := range c.views {
		saved[name] = c.views[name]
	}
	defer func() { c.views = saved }()
	for _, cte := range q.With {
		v, err := c.compileQueryExpr(cte.Body, nil)
		if err != nil {
			return nil, fmt.Errorf("compile: view %s: %w", cte.Name, err)
		}
		c.views[strings.ToLower(cte.Name)] = v
	}
	return c.compileQueryExpr(q.Body, outer)
}

func (c *compiler) compileQueryExpr(qe sql.QueryExpr, outer *scope) (*Compiled, error) {
	switch qe := qe.(type) {
	case sql.SetOp:
		l, err := c.compileQueryExpr(qe.L, outer)
		if err != nil {
			return nil, err
		}
		r, err := c.compileQueryExpr(qe.R, outer)
		if err != nil {
			return nil, err
		}
		if l.Expr.Arity() != r.Expr.Arity() {
			return nil, fmt.Errorf("compile: %s of arities %d and %d", qe.Op, l.Expr.Arity(), r.Expr.Arity())
		}
		var e algebra.Expr
		switch qe.Op {
		case sql.OpUnion:
			e = algebra.Union{L: l.Expr, R: r.Expr}
		case sql.OpIntersect:
			e = algebra.Intersect{L: l.Expr, R: r.Expr}
		default:
			e = algebra.Diff{L: l.Expr, R: r.Expr}
		}
		return &Compiled{Expr: e, Columns: l.Columns}, nil
	case *sql.SelectStmt:
		expr, cols, err := c.compileSelect(qe, outer, true)
		if err != nil {
			return nil, err
		}
		return &Compiled{Expr: expr, Columns: cols}, nil
	default:
		return nil, fmt.Errorf("compile: unknown query expression %T", qe)
	}
}

// block is the compiled FROM-WHERE part of a select statement, before
// projection: the product of the FROM items with local filters and
// local (anti-)semijoins applied, plus the conjuncts that reference the
// enclosing block (returned to the caller to become semijoin conditions).
type block struct {
	expr      algebra.Expr
	sc        *scope
	crossCond []algebra.Cond // conditions referencing the outer scope
}

// compileSelect compiles a full select statement. When project is false
// the projection and DISTINCT are skipped and the full block is
// returned (used for EXISTS subqueries, whose select list is
// irrelevant).
func (c *compiler) compileSelect(s *sql.SelectStmt, outer *scope, project bool) (algebra.Expr, []string, error) {
	blk, err := c.compileBlock(s, outer, 0)
	if err != nil {
		return nil, nil, err
	}
	if len(blk.crossCond) > 0 {
		return nil, nil, fmt.Errorf("compile: correlated reference outside a subquery")
	}
	if !project {
		cols := make([]string, 0)
		for _, e := range blk.sc.entries {
			cols = append(cols, e.attrs...)
		}
		return blk.expr, cols, nil
	}

	if aggregated(s) {
		return c.compileAggregate(s, blk)
	}

	var cols []int
	var names []string
	if s.Star {
		for i := 0; i < blk.expr.Arity(); i++ {
			cols = append(cols, i)
		}
		for _, e := range blk.sc.entries {
			names = append(names, e.attrs...)
		}
	} else {
		for _, item := range s.Items {
			ref, ok := item.Expr.(sql.ColRef)
			if !ok {
				return nil, nil, fmt.Errorf("compile: select item %T is only supported in scalar subqueries", item.Expr)
			}
			idx, local, err := blk.sc.resolve(ref)
			if err != nil {
				return nil, nil, err
			}
			if !local {
				return nil, nil, fmt.Errorf("compile: select item %s references an outer block", ref.Name)
			}
			cols = append(cols, idx)
			names = append(names, ref.Name)
		}
	}
	var out algebra.Expr = algebra.Project{Child: blk.expr, Cols: cols}
	if s.Distinct {
		out = algebra.Distinct{Child: out}
	}
	return c.applyOrderLimit(s, out, names)
}

// aggregated reports whether the select needs a grouping pipeline.
func aggregated(s *sql.SelectStmt) bool {
	if len(s.GroupBy) > 0 || s.Having != nil {
		return true
	}
	for _, item := range s.Items {
		if _, ok := item.Expr.(sql.AggCall); ok {
			return true
		}
	}
	return false
}

// compileAggregate builds γ over the block, projects the select list,
// and applies ORDER BY / LIMIT. SQL's rule is enforced: non-aggregate
// select items must appear in GROUP BY.
func (c *compiler) compileAggregate(s *sql.SelectStmt, blk *block) (algebra.Expr, []string, error) {
	if s.Star {
		return nil, nil, fmt.Errorf("compile: SELECT * cannot be combined with aggregation")
	}
	var keys []int
	keyPos := map[int]int{} // block column -> key index
	for _, g := range s.GroupBy {
		idx, local, err := blk.sc.resolve(g)
		if err != nil {
			return nil, nil, err
		}
		if !local {
			return nil, nil, fmt.Errorf("compile: GROUP BY column %s references an outer block", g.Name)
		}
		if _, dup := keyPos[idx]; !dup {
			keyPos[idx] = len(keys)
			keys = append(keys, idx)
		}
	}

	var aggs []algebra.AggSpec
	var cols []int // positions in the GroupBy output, per select item
	var names []string
	for _, item := range s.Items {
		switch e := item.Expr.(type) {
		case sql.ColRef:
			idx, local, err := blk.sc.resolve(e)
			if err != nil {
				return nil, nil, err
			}
			if !local {
				return nil, nil, fmt.Errorf("compile: select item %s references an outer block", e.Name)
			}
			pos, ok := keyPos[idx]
			if !ok {
				return nil, nil, fmt.Errorf("compile: column %s must appear in GROUP BY or inside an aggregate", e.Name)
			}
			cols = append(cols, pos)
			names = append(names, e.Name)
		case sql.AggCall:
			spec, err := c.aggSpec(e, blk)
			if err != nil {
				return nil, nil, err
			}
			cols = append(cols, len(keys)+addAggSpec(&aggs, spec))
			names = append(names, strings.ToLower(e.Func))
		default:
			return nil, nil, fmt.Errorf("compile: unsupported select item %T in an aggregate query", item.Expr)
		}
	}

	// HAVING filters the groups; its aggregates may extend the computed
	// list beyond the select items.
	var having algebra.Cond
	if s.Having != nil {
		h, err := c.compileHaving(s.Having, blk, keyPos, &aggs, len(keys))
		if err != nil {
			return nil, nil, err
		}
		having = h
	}

	var grouped algebra.Expr = algebra.GroupBy{Child: blk.expr, Keys: keys, Aggs: aggs}
	if having != nil {
		grouped = algebra.Select{Child: grouped, Cond: having}
	}
	var out algebra.Expr = algebra.Project{Child: grouped, Cols: cols}
	if s.Distinct {
		out = algebra.Distinct{Child: out}
	}
	return c.applyOrderLimit(s, out, names)
}

// aggSpec converts an AggCall into an AggSpec over block columns.
func (c *compiler) aggSpec(e sql.AggCall, blk *block) (algebra.AggSpec, error) {
	spec := algebra.AggSpec{Col: -1}
	switch e.Func {
	case "AVG":
		spec.Func = algebra.AggAvg
	case "SUM":
		spec.Func = algebra.AggSum
	case "COUNT":
		spec.Func = algebra.AggCount
	case "MIN":
		spec.Func = algebra.AggMin
	case "MAX":
		spec.Func = algebra.AggMax
	}
	if e.Arg != nil {
		ref, ok := e.Arg.(sql.ColRef)
		if !ok {
			return spec, fmt.Errorf("compile: aggregate argument must be a column")
		}
		idx, local, err := blk.sc.resolve(ref)
		if err != nil {
			return spec, err
		}
		if !local {
			return spec, fmt.Errorf("compile: aggregate over an outer column")
		}
		spec.Col = idx
	} else if spec.Func != algebra.AggCount {
		return spec, fmt.Errorf("compile: %s(*) is not valid", e.Func)
	}
	return spec, nil
}

// addAggSpec appends spec unless an identical one exists, returning its
// index in the aggregate list.
func addAggSpec(aggs *[]algebra.AggSpec, spec algebra.AggSpec) int {
	for i, a := range *aggs {
		if a == spec {
			return i
		}
	}
	*aggs = append(*aggs, spec)
	return len(*aggs) - 1
}

// compileHaving compiles the HAVING condition over the GroupBy output
// (group keys first, then aggregates).
func (c *compiler) compileHaving(e sql.Expr, blk *block, keyPos map[int]int, aggs *[]algebra.AggSpec, nKeys int) (algebra.Cond, error) {
	operand := func(x sql.Expr) (algebra.Operand, error) {
		switch x := x.(type) {
		case sql.AggCall:
			spec, err := c.aggSpec(x, blk)
			if err != nil {
				return nil, err
			}
			return algebra.Col{Idx: nKeys + addAggSpec(aggs, spec)}, nil
		case sql.ColRef:
			idx, local, err := blk.sc.resolve(x)
			if err != nil {
				return nil, err
			}
			if !local {
				return nil, fmt.Errorf("compile: HAVING references an outer block")
			}
			pos, ok := keyPos[idx]
			if !ok {
				return nil, fmt.Errorf("compile: HAVING column %s must appear in GROUP BY or inside an aggregate", x.Name)
			}
			return algebra.Col{Idx: pos}, nil
		default:
			vals, err := c.operandValues(x)
			if err != nil {
				return nil, err
			}
			if len(vals) != 1 {
				return nil, fmt.Errorf("compile: list parameter in HAVING")
			}
			return algebra.Lit{Val: vals[0]}, nil
		}
	}
	switch e := e.(type) {
	case sql.AndExpr:
		l, err := c.compileHaving(e.L, blk, keyPos, aggs, nKeys)
		if err != nil {
			return nil, err
		}
		r, err := c.compileHaving(e.R, blk, keyPos, aggs, nKeys)
		if err != nil {
			return nil, err
		}
		return algebra.NewAnd(l, r), nil
	case sql.OrExpr:
		l, err := c.compileHaving(e.L, blk, keyPos, aggs, nKeys)
		if err != nil {
			return nil, err
		}
		r, err := c.compileHaving(e.R, blk, keyPos, aggs, nKeys)
		if err != nil {
			return nil, err
		}
		return algebra.NewOr(l, r), nil
	case sql.NotExpr:
		sub, err := c.compileHaving(e.E, blk, keyPos, aggs, nKeys)
		if err != nil {
			return nil, err
		}
		return algebra.Not{C: sub}, nil
	case sql.CmpExpr:
		l, err := operand(e.L)
		if err != nil {
			return nil, err
		}
		r, err := operand(e.R)
		if err != nil {
			return nil, err
		}
		var op algebra.CmpOp
		switch e.Op {
		case "=":
			op = algebra.EQ
		case "<>":
			op = algebra.NE
		case "<":
			op = algebra.LT
		case "<=":
			op = algebra.LE
		case ">":
			op = algebra.GT
		case ">=":
			op = algebra.GE
		}
		return algebra.Cmp{Op: op, L: l, R: r}, nil
	case sql.IsNullExpr:
		o, err := operand(e.E)
		if err != nil {
			return nil, err
		}
		return algebra.NullTest{Operand: o, Negated: e.Negated}, nil
	default:
		return nil, fmt.Errorf("compile: unsupported HAVING condition %T", e)
	}
}

// applyOrderLimit attaches ORDER BY and LIMIT to the projected output.
// ORDER BY keys resolve against the output columns, by name or 1-based
// position.
func (c *compiler) applyOrderLimit(s *sql.SelectStmt, out algebra.Expr, names []string) (algebra.Expr, []string, error) {
	if len(s.OrderBy) > 0 {
		var keys []algebra.SortKey
		for _, o := range s.OrderBy {
			col := -1
			if o.Pos > 0 {
				if o.Pos > len(names) {
					return nil, nil, fmt.Errorf("compile: ORDER BY position %d out of range (%d output columns)", o.Pos, len(names))
				}
				col = o.Pos - 1
			} else {
				for i, n := range names {
					if strings.EqualFold(n, o.Ref.Name) && o.Ref.Qualifier == "" {
						col = i
						break
					}
				}
				if col < 0 {
					return nil, nil, fmt.Errorf("compile: ORDER BY column %q is not in the select list", o.Ref.Name)
				}
			}
			keys = append(keys, algebra.SortKey{Col: col, Desc: o.Desc})
		}
		out = algebra.Sort{Child: out, Keys: keys}
	}
	if s.Limit != nil {
		out = algebra.Limit{Child: out, N: *s.Limit}
	}
	return out, names, nil
}

// compileBlock compiles FROM + WHERE of a select. offset is the column
// position at which this block's product begins in the coordinate system
// of the enclosing semijoin (0 for top-level blocks, nL for subqueries).
//
// Internally the block's own columns are numbered from offset; outer
// references resolve through the outer scope at their own (absolute)
// positions. The returned crossCond conditions are therefore directly
// usable as the semijoin condition over the concatenated outer+inner
// tuple.
func (c *compiler) compileBlock(s *sql.SelectStmt, outer *scope, offset int) (*block, error) {
	sc := &scope{outer: outer}
	var leaves []algebra.Expr
	pos := offset
	for _, ref := range s.From {
		leafExpr, attrs, err := c.fromItem(ref)
		if err != nil {
			return nil, err
		}
		sc.entries = append(sc.entries, scopeEntry{name: ref.Name(), attrs: attrs, offset: pos})
		leaves = append(leaves, leafExpr)
		pos += leafExpr.Arity()
	}
	expr := algebra.ProductOf(leaves)
	arity := pos - offset

	// Split WHERE into plain conjuncts and subquery conjuncts.
	var plain []algebra.Cond
	var cross []algebra.Cond
	type subJoin struct {
		inner algebra.Expr
		cond  algebra.Cond // over concatenated (this block ++ inner) columns
		anti  bool
	}
	var joins []subJoin

	for _, conj := range conjuncts(s.Where) {
		switch e := stripDoubleNot(conj).(type) {
		case sql.ExistsExpr:
			inner, innerCross, err := c.compileSub(e.Sub, sc, offset+arity)
			if err != nil {
				return nil, err
			}
			joins = append(joins, subJoin{inner: inner, cond: algebra.NewAnd(innerCross...), anti: e.Negated})
		case sql.NotExpr:
			sub, ok := stripDoubleNot(e.E).(sql.ExistsExpr)
			if ok {
				inner, innerCross, err := c.compileSub(sub.Sub, sc, offset+arity)
				if err != nil {
					return nil, err
				}
				joins = append(joins, subJoin{inner: inner, cond: algebra.NewAnd(innerCross...), anti: !sub.Negated})
				continue
			}
			if in, ok := stripDoubleNot(e.E).(sql.InExpr); ok && in.Sub != nil {
				j, err := c.compileInSub(in, !in.Negated, sc, offset+arity)
				if err != nil {
					return nil, err
				}
				joins = append(joins, subJoin{inner: j.inner, cond: j.cond, anti: j.anti})
				continue
			}
			cond, err := c.compileCond(conj, sc)
			if err != nil {
				return nil, err
			}
			c.splitLocal(cond, offset, arity, &plain, &cross)
		case sql.InExpr:
			if e.Sub == nil {
				cond, err := c.compileCond(conj, sc)
				if err != nil {
					return nil, err
				}
				c.splitLocal(cond, offset, arity, &plain, &cross)
				continue
			}
			j, err := c.compileInSub(e, e.Negated, sc, offset+arity)
			if err != nil {
				return nil, err
			}
			joins = append(joins, subJoin{inner: j.inner, cond: j.cond, anti: j.anti})
		default:
			cond, err := c.compileCond(conj, sc)
			if err != nil {
				return nil, err
			}
			c.splitLocal(cond, offset, arity, &plain, &cross)
		}
	}

	// Shift this block's columns down to a 0-based local coordinate
	// system for the Select node, then apply subquery joins; semijoin
	// conditions need the block at positions 0..arity-1 and the inner at
	// arity.., so inner compilation used offset+arity already — but the
	// block itself is local, so cross conditions from *this* block's
	// subqueries must shift outer references... To keep coordinates
	// simple, blocks are compiled with offset-based columns and
	// normalized here.
	shift := func(col int) int { return col - offset }
	for _, j := range joins {
		for _, col := range algebra.ColsUsed(j.cond) {
			if col < offset {
				return nil, fmt.Errorf("compile: subquery correlates across more than one block level (column #%d)", col)
			}
		}
	}
	if len(plain) > 0 {
		local := algebra.MapCols(algebra.NewAnd(plain...), shift)
		expr = algebra.Select{Child: expr, Cond: local}
	}
	for _, j := range joins {
		// j.cond uses: this block at offset..offset+arity-1, inner at
		// offset+arity... Normalize to 0-based for the SemiJoin node.
		cond := algebra.MapCols(j.cond, shift)
		expr = algebra.SemiJoin{L: expr, R: j.inner, Cond: cond, Anti: j.anti}
	}
	return &block{expr: expr, sc: sc, crossCond: cross}, nil
}

// splitLocal routes a compiled condition either to the block's local
// selection or to the cross-condition list handed to the enclosing
// semijoin, depending on whether it references outer columns.
func (c *compiler) splitLocal(cond algebra.Cond, offset, arity int, plain, cross *[]algebra.Cond) {
	local := true
	for _, col := range algebra.ColsUsed(cond) {
		if col < offset || col >= offset+arity {
			local = false
			break
		}
	}
	if local {
		*plain = append(*plain, cond)
	} else {
		*cross = append(*cross, cond)
	}
}

// compileSub compiles an EXISTS subquery body. innerOffset is where the
// subquery's columns start in the semijoin coordinate system. It
// returns the inner expression (self-contained, 0-based) and the cross
// conditions (in semijoin coordinates: outer block columns as resolved
// by the outer scope, inner columns from innerOffset).
func (c *compiler) compileSub(q *sql.Query, outer *scope, innerOffset int) (algebra.Expr, []algebra.Cond, error) {
	if len(q.With) > 0 {
		return nil, nil, fmt.Errorf("compile: WITH inside a subquery is not supported")
	}
	sel, ok := q.Body.(*sql.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("compile: set operations inside EXISTS are not supported")
	}
	if err := noDecoration(sel, "EXISTS subquery"); err != nil {
		return nil, nil, err
	}
	blk, err := c.compileBlock(sel, outer, innerOffset)
	if err != nil {
		return nil, nil, err
	}
	// The inner expression was compiled with local columns normalized to
	// 0-based inside compileBlock; blk.crossCond still references outer
	// scopes absolutely and the inner block from innerOffset — exactly
	// the semijoin coordinate system when the enclosing block sits at
	// offset 0. For deeper nesting the caller's own shift handles it.
	return blk.expr, blk.crossCond, nil
}

type inJoin struct {
	inner algebra.Expr
	cond  algebra.Cond
	anti  bool
}

// compileInSub compiles E [NOT] IN (subquery) into an (anti-)semijoin.
func (c *compiler) compileInSub(in sql.InExpr, negated bool, outer *scope, innerOffset int) (*inJoin, error) {
	if len(in.Sub.With) > 0 {
		return nil, fmt.Errorf("compile: WITH inside an IN subquery is not supported")
	}
	sel, ok := in.Sub.Body.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("compile: set operations inside IN are not supported")
	}
	if sel.Star || len(sel.Items) != 1 {
		return nil, fmt.Errorf("compile: IN subquery must select exactly one column")
	}
	if err := noDecoration(sel, "IN subquery"); err != nil {
		return nil, err
	}
	itemRef, ok := sel.Items[0].Expr.(sql.ColRef)
	if !ok {
		return nil, fmt.Errorf("compile: IN subquery must select a plain column")
	}
	blk, err := c.compileBlock(sel, outer, innerOffset)
	if err != nil {
		return nil, err
	}
	innerIdx, local, err := blk.sc.resolve(itemRef)
	if err != nil {
		return nil, err
	}
	if !local {
		return nil, fmt.Errorf("compile: IN subquery selects an outer column")
	}
	lhs, err := c.compileOperand(in.E, outer)
	if err != nil {
		return nil, err
	}
	rhs := algebra.Col{Idx: innerIdx}
	eq := algebra.Cond(algebra.Cmp{Op: algebra.EQ, L: lhs, R: rhs})
	if negated {
		// SQL semantics: NOT IN keeps the row only if every comparison
		// is false; a true-or-unknown match must discard it.
		eq = algebra.NewOr(eq, algebra.NullTest{Operand: lhs}, algebra.NullTest{Operand: rhs})
	}
	cond := algebra.NewAnd(append([]algebra.Cond{eq}, blk.crossCond...)...)
	return &inJoin{inner: blk.expr, cond: cond, anti: negated}, nil
}

// noDecoration rejects GROUP BY / ORDER BY / LIMIT in subquery
// positions, where they are either meaningless or unsupported.
func noDecoration(sel *sql.SelectStmt, where string) error {
	switch {
	case len(sel.GroupBy) > 0:
		return fmt.Errorf("compile: GROUP BY is not supported in a %s", where)
	case sel.Having != nil:
		return fmt.Errorf("compile: HAVING is not supported in a %s", where)
	case len(sel.OrderBy) > 0:
		return fmt.Errorf("compile: ORDER BY is not supported in a %s", where)
	case sel.Limit != nil:
		return fmt.Errorf("compile: LIMIT is not supported in a %s", where)
	}
	return nil
}

// fromItem resolves a FROM entry to a base relation or a compiled view.
func (c *compiler) fromItem(ref sql.TableRef) (algebra.Expr, []string, error) {
	if v, ok := c.views[strings.ToLower(ref.Table)]; ok {
		return v.Expr, v.Columns, nil
	}
	rel, ok := c.sch.Relation(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("compile: unknown table %q", ref.Table)
	}
	attrs := make([]string, rel.Arity())
	for i, a := range rel.Attrs {
		attrs[i] = a.Name
	}
	return algebra.Base{Name: strings.ToLower(rel.Name), Cols: rel.Arity()}, attrs, nil
}

func conjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(sql.AndExpr); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []sql.Expr{e}
}

func stripDoubleNot(e sql.Expr) sql.Expr {
	for {
		n, ok := e.(sql.NotExpr)
		if !ok {
			return e
		}
		inner, ok := n.E.(sql.NotExpr)
		if !ok {
			return e
		}
		e = inner.E
	}
}

// compileCond compiles a Boolean expression with no (non-scalar)
// subqueries into an algebra condition.
func (c *compiler) compileCond(e sql.Expr, sc *scope) (algebra.Cond, error) {
	switch e := e.(type) {
	case sql.AndExpr:
		l, err := c.compileCond(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(e.R, sc)
		if err != nil {
			return nil, err
		}
		return algebra.NewAnd(l, r), nil
	case sql.OrExpr:
		l, err := c.compileCond(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := c.compileCond(e.R, sc)
		if err != nil {
			return nil, err
		}
		return algebra.NewOr(l, r), nil
	case sql.NotExpr:
		sub, err := c.compileCond(e.E, sc)
		if err != nil {
			return nil, err
		}
		return algebra.Not{C: sub}, nil
	case sql.CmpExpr:
		l, err := c.compileOperand(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := c.compileOperand(e.R, sc)
		if err != nil {
			return nil, err
		}
		var op algebra.CmpOp
		switch e.Op {
		case "=":
			op = algebra.EQ
		case "<>":
			op = algebra.NE
		case "<":
			op = algebra.LT
		case "<=":
			op = algebra.LE
		case ">":
			op = algebra.GT
		case ">=":
			op = algebra.GE
		default:
			return nil, fmt.Errorf("compile: unknown comparison %q", e.Op)
		}
		return algebra.Cmp{Op: op, L: l, R: r}, nil
	case sql.LikeExpr:
		l, err := c.compileOperand(e.L, sc)
		if err != nil {
			return nil, err
		}
		p, err := c.compileOperand(e.Pattern, sc)
		if err != nil {
			return nil, err
		}
		return algebra.Like{Operand: l, Pattern: p, Negated: e.Negated}, nil
	case sql.IsNullExpr:
		o, err := c.compileOperand(e.E, sc)
		if err != nil {
			return nil, err
		}
		return algebra.NullTest{Operand: o, Negated: e.Negated}, nil
	case sql.InExpr:
		if e.Sub != nil {
			return nil, fmt.Errorf("compile: IN subquery is supported only as a top-level WHERE conjunct")
		}
		lhs, err := c.compileOperand(e.E, sc)
		if err != nil {
			return nil, err
		}
		var alts []algebra.Cond
		for _, item := range e.List {
			vals, err := c.operandValues(item)
			if err != nil {
				return nil, err
			}
			for _, v := range vals {
				alts = append(alts, algebra.Cmp{Op: algebra.EQ, L: lhs, R: algebra.Lit{Val: v}})
			}
		}
		cond := algebra.NewOr(alts...)
		if e.Negated {
			cond = algebra.NNF(algebra.Not{C: cond})
		}
		return cond, nil
	case sql.ExistsExpr:
		return nil, fmt.Errorf("compile: EXISTS is supported only as a top-level WHERE conjunct (possibly negated)")
	default:
		return nil, fmt.Errorf("compile: unsupported condition %T", e)
	}
}

// compileOperand compiles a scalar operand.
func (c *compiler) compileOperand(e sql.Expr, sc *scope) (algebra.Operand, error) {
	switch e := e.(type) {
	case sql.ColRef:
		idx, _, err := sc.resolve(e)
		if err != nil {
			return nil, err
		}
		return algebra.Col{Idx: idx}, nil
	case sql.NumLit, sql.StrLit, sql.NullLit, sql.Param, sql.Concat:
		vals, err := c.operandValues(e)
		if err != nil {
			return nil, err
		}
		if len(vals) != 1 {
			return nil, fmt.Errorf("compile: list-valued parameter used in scalar position")
		}
		return algebra.Lit{Val: vals[0]}, nil
	case sql.SubqueryExpr:
		return c.compileScalarSub(e.Q)
	default:
		return nil, fmt.Errorf("compile: unsupported operand %T", e)
	}
}

// compileScalarSub compiles an uncorrelated scalar aggregate subquery,
// treated as a black-box constant per Section 7 of the paper.
func (c *compiler) compileScalarSub(q *sql.Query) (algebra.Operand, error) {
	if len(q.With) > 0 {
		return nil, fmt.Errorf("compile: WITH inside a scalar subquery is not supported")
	}
	sel, ok := q.Body.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("compile: set operations inside a scalar subquery are not supported")
	}
	if sel.Star || len(sel.Items) != 1 {
		return nil, fmt.Errorf("compile: scalar subquery must select exactly one aggregate")
	}
	agg, ok := sel.Items[0].Expr.(sql.AggCall)
	if !ok {
		return nil, fmt.Errorf("compile: scalar subquery must select an aggregate (AVG, SUM, COUNT, MIN, MAX)")
	}
	if err := noDecoration(sel, "scalar subquery"); err != nil {
		return nil, err
	}
	blk, err := c.compileBlock(sel, nil, 0)
	if err != nil {
		return nil, err
	}
	if len(blk.crossCond) > 0 {
		return nil, fmt.Errorf("compile: correlated scalar subqueries are not supported")
	}
	var fn algebra.AggFunc
	switch agg.Func {
	case "AVG":
		fn = algebra.AggAvg
	case "SUM":
		fn = algebra.AggSum
	case "COUNT":
		fn = algebra.AggCount
	case "MIN":
		fn = algebra.AggMin
	case "MAX":
		fn = algebra.AggMax
	}
	// COUNT(*) counts rows, nulls included; Col = -1 tells the evaluator
	// not to project (and skip nulls in) any particular column.
	col := -1
	if agg.Arg != nil {
		ref, ok := agg.Arg.(sql.ColRef)
		if !ok {
			return nil, fmt.Errorf("compile: aggregate argument must be a column")
		}
		idx, local, err := blk.sc.resolve(ref)
		if err != nil {
			return nil, err
		}
		if !local {
			return nil, fmt.Errorf("compile: aggregate over an outer column")
		}
		col = idx
	} else if fn != algebra.AggCount {
		return nil, fmt.Errorf("compile: %s(*) is not valid", agg.Func)
	}
	return algebra.Scalar{Sub: blk.expr, Agg: fn, Col: col}, nil
}

// operandValues evaluates a constant operand (literal, parameter, or
// concatenation thereof) to one or more values.
func (c *compiler) operandValues(e sql.Expr) ([]value.Value, error) {
	switch e := e.(type) {
	case sql.NumLit:
		if i, err := strconv.ParseInt(e.Text, 10, 64); err == nil {
			return []value.Value{value.Int(i)}, nil
		}
		f, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("compile: bad numeric literal %q", e.Text)
		}
		return []value.Value{value.Float(f)}, nil
	case sql.StrLit:
		return []value.Value{value.Str(e.Text)}, nil
	case sql.NullLit:
		return []value.Value{value.Null(0)}, nil
	case sql.Param:
		raw, ok := c.params[e.Name]
		if !ok {
			return nil, fmt.Errorf("compile: unbound parameter $%s", e.Name)
		}
		return coerceParam(e.Name, raw)
	case sql.Concat:
		var b strings.Builder
		for _, p := range e.Parts {
			vals, err := c.operandValues(p)
			if err != nil {
				return nil, err
			}
			if len(vals) != 1 {
				return nil, fmt.Errorf("compile: list parameter inside a concatenation")
			}
			v := vals[0]
			switch v.Kind() {
			case value.KindString:
				b.WriteString(v.AsString())
			case value.KindInt:
				b.WriteString(strconv.FormatInt(v.AsInt(), 10))
			default:
				return nil, fmt.Errorf("compile: cannot concatenate %s value", v.Kind())
			}
		}
		return []value.Value{value.Str(b.String())}, nil
	default:
		return nil, fmt.Errorf("compile: expected a constant expression, found %T", e)
	}
}

func coerceParam(name string, raw any) ([]value.Value, error) {
	switch raw := raw.(type) {
	case value.Value:
		return []value.Value{raw}, nil
	case []value.Value:
		return raw, nil
	case string:
		return []value.Value{value.Str(raw)}, nil
	case int:
		return []value.Value{value.Int(int64(raw))}, nil
	case int64:
		return []value.Value{value.Int(raw)}, nil
	case float64:
		return []value.Value{value.Float(raw)}, nil
	case bool:
		return []value.Value{value.Bool(raw)}, nil
	case []int64:
		out := make([]value.Value, len(raw))
		for i, v := range raw {
			out[i] = value.Int(v)
		}
		return out, nil
	case []int:
		out := make([]value.Value, len(raw))
		for i, v := range raw {
			out[i] = value.Int(int64(v))
		}
		return out, nil
	case []string:
		out := make([]value.Value, len(raw))
		for i, v := range raw {
			out[i] = value.Str(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("compile: parameter $%s has unsupported type %T", name, raw)
	}
}
