// Package qgen generates random test instances for the differential
// tester: random schemas, random incomplete databases over them, and
// random SQL text inside the engine's supported fragment.
//
// Everything is driven by a caller-supplied *rand.Rand, so a case is a
// pure function of its seed — the fuzzing harness (internal/difftest,
// cmd/fuzzcert) records only seeds and regenerates cases on demand.
//
// The generators respect the semantic contracts the certain-answer
// pipeline relies on, mirroring the paper's Section 3 setup:
//
//   - nulls occur only in attributes declared nullable (the nullability
//     simplification removes IS NULL tests on non-nullable columns);
//   - declared primary keys hold: key attributes are non-null and key
//     values are distinct (the key-based simplification rewrites
//     anti-unification-semijoins into set differences under keys);
//   - a null mark is reused only within one column kind (a mark valued
//     in two kinds would be unsatisfiable), and reuse is occasional, so
//     both Codd nulls and repeated marked nulls are exercised;
//   - generated SQL uses only constructs the compiler accepts, with
//     correlation restricted to the immediately enclosing block.
package qgen

import (
	"fmt"
	"math"
	"math/rand"

	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Tuning bounds the generated instances. The zero value selects
// defaults small enough for the brute-force certain-answer oracle: the
// valuation space grows exponentially in the null count, so MaxNulls is
// the knob that matters most.
type Tuning struct {
	// MaxRelations bounds the relation count (default 3, min 1).
	MaxRelations int
	// MaxArity bounds attributes per relation (default 3, min 1).
	MaxArity int
	// MaxRowsPerRelation bounds rows per relation (default 3).
	MaxRowsPerRelation int
	// MaxNulls bounds the total marked nulls in the database (default 3).
	MaxNulls int
	// MarkReuseProb is the probability that a new null reuses the
	// previous mark of the same kind (default 0.3).
	MarkReuseProb float64
	// NullFreeProb is the probability that the whole schema is declared
	// NOT NULL (default 0.15). Null-free schemas are the boundary the
	// static analyzer cares about: they make safe verdicts — and hence
	// the evaluation fast path — reachable, so the analyzer-soundness
	// invariant gets exercised.
	NullFreeProb float64
	// MaxDepth bounds subquery nesting (default 2).
	MaxDepth int
	// AggProb is the probability that the top-level block is an
	// aggregate query — GROUP BY / HAVING / aggregate select items
	// (default 0.15). Aggregate queries exercise the standard-evaluation
	// invariants only: the certain translation refuses them (paper §8).
	AggProb float64
	// SetOpProb is the probability of a set operation at each query-
	// expression level (default 0.25).
	SetOpProb float64
	// WithProb is the probability of a WITH clause (default 0.2).
	WithProb float64
	// DecorationProb is the probability of ORDER BY / LIMIT on a
	// non-aggregate top-level query (default 0.1); like aggregation,
	// decorations confine a case to the standard-evaluation checks.
	DecorationProb float64
}

func (t Tuning) withDefaults() Tuning {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&t.MaxRelations, 3)
	def(&t.MaxArity, 3)
	def(&t.MaxRowsPerRelation, 3)
	def(&t.MaxNulls, 3)
	def(&t.MaxDepth, 2)
	deff(&t.MarkReuseProb, 0.3)
	deff(&t.NullFreeProb, 0.15)
	deff(&t.AggProb, 0.15)
	deff(&t.SetOpProb, 0.25)
	deff(&t.WithProb, 0.2)
	deff(&t.DecorationProb, 0.1)
	return t
}

// kindWeights: integers dominate (they join and compare most richly);
// strings exercise LIKE; floats exercise numeric cross-kind comparison;
// bools keep the small-domain corner alive.
var kindChoices = []value.Kind{
	value.KindInt, value.KindInt, value.KindInt, value.KindInt,
	value.KindString, value.KindString,
	value.KindFloat,
	value.KindBool,
}

// attrLetters names attributes globally uniquely across relations, so
// unqualified column references are unambiguous in generated joins.
var attrLetters = "abcdefghijklmnopqrstuvwxyz"

// Schema draws a random schema: 1..MaxRelations relations named r0,
// r1, …, each with 1..MaxArity attributes of random kinds. About a
// third of the relations declare their first attribute as primary key.
func Schema(rng *rand.Rand, tn Tuning) *schema.Schema {
	tn = tn.withDefaults()
	s := schema.New()
	nRel := 1 + rng.Intn(tn.MaxRelations)
	nullFree := rng.Float64() < tn.NullFreeProb
	next := 0
	for ri := 0; ri < nRel; ri++ {
		arity := 1 + rng.Intn(tn.MaxArity)
		rel := &schema.Relation{Name: fmt.Sprintf("r%d", ri)}
		keyed := rng.Float64() < 0.35
		for ai := 0; ai < arity; ai++ {
			attr := schema.Attribute{
				Name: string(attrLetters[next%len(attrLetters)]),
				Type: kindChoices[rng.Intn(len(kindChoices))],
			}
			next++
			if keyed && ai == 0 {
				// Key columns are non-null and must offer enough distinct
				// values; bools cap out at two rows.
				attr.Nullable = false
				if attr.Type == value.KindBool || attr.Type == value.KindFloat {
					attr.Type = value.KindInt
				}
			} else {
				attr.Nullable = !nullFree && rng.Float64() < 0.6
			}
			rel.Attrs = append(rel.Attrs, attr)
		}
		if keyed {
			rel.Key = []int{0}
		}
		s.MustAdd(rel)
	}
	return s
}

// constPool returns the small constant domain for a kind. Small domains
// force value collisions, which is where null semantics bite.
func constPool(kind value.Kind) []value.Value {
	switch kind {
	case value.KindInt:
		return []value.Value{value.Int(0), value.Int(1), value.Int(2), value.Int(3)}
	case value.KindFloat:
		// Exactly representable, so text round trips are bit-identical.
		return []value.Value{value.Float(0.5), value.Float(1.5), value.Float(2.5)}
	case value.KindString:
		return []value.Value{value.Str("x"), value.Str("y"), value.Str("z"), value.Str("xy")}
	case value.KindBool:
		return []value.Value{value.Bool(false), value.Bool(true)}
	default:
		panic(fmt.Sprintf("qgen: no constant pool for kind %s", kind))
	}
}

// dataPool is the domain stored values are drawn from: constPool's,
// except where numeric equality is hard. Ints trade 2 and 3 for 2⁵³ and
// 2⁵³+1, distinct values that round to one float64; floats trade 0.5
// for both signed zeros, which compare equal (to each other and to
// Int(0)) but differ in their IEEE bits, and 2.5 for 2⁵³, which equals
// Int(2⁵³) but not Int(2⁵³+1). These are where a key encoding can
// split equal values or merge distinct ones. Trading keeps the pool
// sizes, and so the brute-force valuation space, as they were. The
// traded values stay out of query literals, where the dialect cannot
// spell -0.0.
func dataPool(kind value.Kind) []value.Value {
	switch kind {
	case value.KindInt:
		return []value.Value{value.Int(0), value.Int(1), value.Int(1 << 53), value.Int(1<<53 + 1)}
	case value.KindFloat:
		return []value.Value{value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(1.5), value.Float(1 << 53)}
	default:
		return constPool(kind)
	}
}

// Database draws a random incomplete instance of sch: up to
// MaxRowsPerRelation rows per relation, constants from small per-kind
// domains, and up to MaxNulls marked nulls confined to nullable
// attributes. Marks are occasionally repeated within a kind (non-Codd
// nulls); keyed relations get distinct, non-null key values.
func Database(rng *rand.Rand, sch *schema.Schema, tn Tuning) *table.Database {
	tn = tn.withDefaults()
	db := table.NewDatabase(sch)
	// The generator promises nulls only in nullable attributes; strict
	// enforcement turns any violation of that promise into a loud
	// generator bug instead of a silently non-conforming instance.
	db.EnforceNonNull(true)
	nulls := 0
	lastMark := map[value.Kind]value.Value{}
	mkVal := func(attr schema.Attribute) value.Value {
		if attr.Nullable && nulls < tn.MaxNulls && rng.Float64() < 0.25 {
			nulls++
			if prev, ok := lastMark[attr.Type]; ok && rng.Float64() < tn.MarkReuseProb {
				return prev
			}
			mark := db.FreshNull()
			lastMark[attr.Type] = mark
			return mark
		}
		pool := dataPool(attr.Type)
		return pool[rng.Intn(len(pool))]
	}
	for _, name := range sch.Names() {
		rel, _ := sch.Relation(name)
		n := rng.Intn(tn.MaxRowsPerRelation + 1)
		for i := 0; i < n; i++ {
			row := make(table.Row, rel.Arity())
			for ai, attr := range rel.Attrs {
				if rel.HasKey() && ai == rel.Key[0] {
					row[ai] = keyValue(attr.Type, i)
					continue
				}
				row[ai] = mkVal(attr)
			}
			if err := db.Insert(name, row); err != nil {
				panic(fmt.Sprintf("qgen: %v", err)) // generator bug, not user error
			}
		}
	}
	return db
}

// keyValue returns the i-th distinct constant of a kind, for primary-key
// positions. Key values deliberately overlap the constant pools (0..3,
// x/y/z…) so keys still join against non-key columns.
func keyValue(kind value.Kind, i int) value.Value {
	switch kind {
	case value.KindInt:
		return value.Int(int64(i))
	case value.KindFloat:
		return value.Float(0.5 + float64(i))
	case value.KindString:
		return value.Str(string(attrLetters[23-i%24])) // x, w, v, …
	case value.KindBool:
		return value.Bool(i%2 == 1) // at most 2 rows can be keyed on a bool
	default:
		panic(fmt.Sprintf("qgen: no key values for kind %s", kind))
	}
}

// Query draws random SQL text over sch. The text always parses and
// compiles (the differential oracle treats a failure to do so as a
// finding in itself). Queries mix joins, set operations, WITH views,
// (NOT) EXISTS and (NOT) IN subqueries with one level of correlation,
// scalar aggregate subqueries, IS NULL tests, LIKE, and — with
// probability AggProb — grouping and aggregation.
func Query(rng *rand.Rand, sch *schema.Schema, tn Tuning) string {
	g := &gen{rng: rng, sch: sch, tn: tn.withDefaults()}
	return g.query().SQL()
}

// Case draws a full differential-test case: schema, database, query.
func Case(rng *rand.Rand, tn Tuning) (*table.Database, string) {
	sch := Schema(rng, tn)
	db := Database(rng, sch, tn)
	return db, Query(rng, sch, tn)
}

// gen carries the generator state for one query.
type gen struct {
	rng     *rand.Rand
	sch     *schema.Schema
	tn      Tuning
	views   []viewInfo
	aliasID int
}

// viewInfo records a WITH view's output signature for later FROM use.
type viewInfo struct {
	name  string
	attrs []colInfo
}

// colInfo is one column visible in a scope: how to reference it and its
// kind.
type colInfo struct {
	qual string // table alias / name to qualify with
	name string
	kind value.Kind
}

func (c colInfo) ref(rng *rand.Rand) sql.ColRef {
	// Qualify about half the time; attribute names are globally unique,
	// so both forms resolve identically.
	if rng.Float64() < 0.5 {
		return sql.ColRef{Qualifier: c.qual, Name: c.name}
	}
	return sql.ColRef{Name: c.name}
}

func (g *gen) query() *sql.Query {
	q := &sql.Query{}
	if g.rng.Float64() < g.tn.WithProb {
		// One WITH view over a base relation; the body may then use it.
		body := g.selectStmt(selOpts{wantArity: 1 + g.rng.Intn(2), depth: 1})
		name := fmt.Sprintf("v%d", len(g.views))
		q.With = append(q.With, sql.CTE{Name: name, Body: body})
		g.views = append(g.views, viewInfo{name: name, attrs: g.outputCols(name, body)})
	}
	q.Body = g.queryExpr(0)
	return q
}

// queryExpr draws a select statement or a set operation over selects of
// matching arity.
func (g *gen) queryExpr(level int) sql.QueryExpr {
	if level < 2 && g.rng.Float64() < g.tn.SetOpProb {
		// Set operations nest on the left only: the grammar has no
		// parenthesized query expressions, so "A OP B OP C" is the one
		// (left-associative) nested form that round-trips.
		arity := 1 + g.rng.Intn(2)
		op := []sql.SetOpKind{sql.OpUnion, sql.OpIntersect, sql.OpExcept}[g.rng.Intn(3)]
		return sql.SetOp{
			Op: op,
			L:  g.setOperand(level, arity),
			R:  g.selectStmt(selOpts{wantArity: arity, depth: g.tn.MaxDepth - 1}),
		}
	}
	opts := selOpts{depth: g.tn.MaxDepth, top: true}
	if g.rng.Float64() < 0.15 {
		opts.star = true
	} else {
		opts.wantArity = 1 + g.rng.Intn(2)
	}
	return g.selectStmt(opts)
}

func (g *gen) setOperand(level int, arity int) sql.QueryExpr {
	if level+1 < 2 && g.rng.Float64() < g.tn.SetOpProb/2 {
		op := []sql.SetOpKind{sql.OpUnion, sql.OpIntersect, sql.OpExcept}[g.rng.Intn(3)]
		return sql.SetOp{
			Op: op,
			L:  g.setOperand(level+1, arity),
			R:  g.selectStmt(selOpts{wantArity: arity, depth: g.tn.MaxDepth - 1}),
		}
	}
	return g.selectStmt(selOpts{wantArity: arity, depth: g.tn.MaxDepth - 1})
}

// selOpts shape one SELECT block.
type selOpts struct {
	wantArity int       // explicit select-item count (ignored when star)
	star      bool      // SELECT *
	depth     int       // remaining subquery depth budget
	outer     []colInfo // columns of the enclosing block (correlation)
	top       bool      // top-level block: aggregation/decoration allowed
}

// selectStmt draws one SELECT-FROM-WHERE block.
func (g *gen) selectStmt(opts selOpts) *sql.SelectStmt {
	s := &sql.SelectStmt{}
	cols := g.fromClause(s)

	if opts.top && g.rng.Float64() < g.tn.AggProb {
		g.aggregate(s, cols)
	} else {
		if opts.star {
			s.Star = true
		} else {
			n := opts.wantArity
			if n <= 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				c := cols[g.rng.Intn(len(cols))]
				s.Items = append(s.Items, sql.SelectItem{Expr: c.ref(g.rng)})
			}
		}
		s.Distinct = g.rng.Float64() < 0.25
		if opts.top && g.rng.Float64() < g.tn.DecorationProb {
			g.decorate(s)
		}
	}

	if g.rng.Float64() < 0.75 {
		s.Where = g.where(cols, opts.outer, opts.depth)
	}
	return s
}

// fromClause draws 1..2 FROM items (base relations or views) and
// returns the visible columns.
func (g *gen) fromClause(s *sql.SelectStmt) []colInfo {
	n := 1
	if g.rng.Float64() < 0.4 {
		n = 2
	}
	var cols []colInfo
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		ref, attrs := g.fromItem()
		if seen[ref.Name()] || g.rng.Float64() < 0.25 {
			g.aliasID++
			ref.Alias = fmt.Sprintf("t%d", g.aliasID)
		}
		seen[ref.Name()] = true
		for _, a := range attrs {
			cols = append(cols, colInfo{qual: ref.Name(), name: a.name, kind: a.kind})
		}
		s.From = append(s.From, ref)
	}
	return cols
}

func (g *gen) fromItem() (sql.TableRef, []colInfo) {
	names := g.sch.Names()
	// Views are rarer FROM items than base relations.
	if len(g.views) > 0 && g.rng.Float64() < 0.3 {
		v := g.views[g.rng.Intn(len(g.views))]
		return sql.TableRef{Table: v.name}, v.attrs
	}
	name := names[g.rng.Intn(len(names))]
	rel, _ := g.sch.Relation(name)
	attrs := make([]colInfo, rel.Arity())
	for i, a := range rel.Attrs {
		attrs[i] = colInfo{qual: name, name: a.Name, kind: a.Type}
	}
	return sql.TableRef{Table: name}, attrs
}

// outputCols computes the column signature a view exposes: the select
// items' names (views are generated with plain column items).
func (g *gen) outputCols(viewName string, body *sql.SelectStmt) []colInfo {
	var out []colInfo
	for _, item := range body.Items {
		ref := item.Expr.(sql.ColRef)
		kind := value.KindInt
		for _, name := range g.sch.Names() {
			rel, _ := g.sch.Relation(name)
			if i := rel.AttrIndex(ref.Name); i >= 0 {
				kind = rel.Attrs[i].Type
				break
			}
		}
		out = append(out, colInfo{qual: viewName, name: ref.Name, kind: kind})
	}
	return out
}

// aggregate turns s into a GROUP BY query over cols.
func (g *gen) aggregate(s *sql.SelectStmt, cols []colInfo) {
	nKeys := 1 + g.rng.Intn(2)
	if nKeys > len(cols) {
		nKeys = len(cols)
	}
	perm := g.rng.Perm(len(cols))[:nKeys]
	for _, i := range perm {
		ref := cols[i].ref(g.rng)
		s.GroupBy = append(s.GroupBy, ref)
		s.Items = append(s.Items, sql.SelectItem{Expr: ref})
	}
	nAggs := 1 + g.rng.Intn(2)
	for i := 0; i < nAggs; i++ {
		s.Items = append(s.Items, sql.SelectItem{Expr: g.aggCall(cols)})
	}
	if g.rng.Float64() < 0.3 {
		s.Having = sql.CmpExpr{
			Op: cmpOps[g.rng.Intn(len(cmpOps))],
			L:  sql.AggCall{Func: "COUNT"},
			R:  sql.NumLit{Text: fmt.Sprintf("%d", g.rng.Intn(3))},
		}
	}
	if g.rng.Float64() < 0.4 {
		s.OrderBy = append(s.OrderBy, sql.OrderItem{Pos: 1 + g.rng.Intn(len(s.Items)), Desc: g.rng.Intn(2) == 0})
	}
}

// aggCall draws an aggregate call valid for the available columns.
func (g *gen) aggCall(cols []colInfo) sql.AggCall {
	if g.rng.Float64() < 0.3 {
		return sql.AggCall{Func: "COUNT"} // COUNT(*)
	}
	// SUM/AVG need numeric input; MIN/MAX work on any ordered kind.
	var numeric []colInfo
	for _, c := range cols {
		if c.kind == value.KindInt || c.kind == value.KindFloat {
			numeric = append(numeric, c)
		}
	}
	fns := []string{"MIN", "MAX", "COUNT"}
	pool := cols
	if len(numeric) > 0 && g.rng.Float64() < 0.5 {
		fns = []string{"SUM", "AVG"}
		pool = numeric
	}
	c := pool[g.rng.Intn(len(pool))]
	return sql.AggCall{Func: fns[g.rng.Intn(len(fns))], Arg: c.ref(g.rng)}
}

// decorate adds ORDER BY (by output position, always unambiguous) and
// sometimes LIMIT.
func (g *gen) decorate(s *sql.SelectStmt) {
	n := len(s.Items)
	if s.Star || n == 0 {
		return
	}
	s.OrderBy = append(s.OrderBy, sql.OrderItem{Pos: 1 + g.rng.Intn(n), Desc: g.rng.Intn(2) == 0})
	if g.rng.Float64() < 0.5 {
		lim := 1 + g.rng.Intn(3)
		s.Limit = &lim
	}
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// where draws a WHERE clause: a conjunction of 1..3 conjuncts, some of
// which may be subquery conjuncts (the only positions the compiler
// accepts them in).
func (g *gen) where(cols, outer []colInfo, depth int) sql.Expr {
	n := 1 + g.rng.Intn(3)
	var out sql.Expr
	for i := 0; i < n; i++ {
		c := g.conjunct(cols, outer, depth)
		if out == nil {
			out = c
		} else {
			out = sql.AndExpr{L: out, R: c}
		}
	}
	return out
}

func (g *gen) conjunct(cols, outer []colInfo, depth int) sql.Expr {
	if depth > 0 {
		switch {
		case g.rng.Float64() < 0.3:
			return g.existsConjunct(cols, depth)
		case g.rng.Float64() < 0.15:
			return g.inSubConjunct(cols, depth)
		}
	}
	return g.cond(cols, outer, 2)
}

// existsConjunct draws [NOT] EXISTS (SELECT * FROM …), usually
// correlated with the enclosing block through one comparison.
func (g *gen) existsConjunct(cols []colInfo, depth int) sql.Expr {
	sub := g.selectStmt(selOpts{star: true, depth: depth - 1, outer: cols})
	return sql.ExistsExpr{
		Sub:     &sql.Query{Body: sub},
		Negated: g.rng.Intn(2) == 0,
	}
}

// inSubConjunct draws E [NOT] IN (SELECT col FROM …) with matching
// kinds.
func (g *gen) inSubConjunct(cols []colInfo, depth int) sql.Expr {
	lhs := cols[g.rng.Intn(len(cols))]
	sub := &sql.SelectStmt{}
	innerCols := g.fromClause(sub)
	// Select one inner column of the lhs kind; fall back to any column
	// (cross-kind IN is legal — comparisons just never hold).
	pick := innerCols[g.rng.Intn(len(innerCols))]
	for _, c := range innerCols {
		if c.kind == lhs.kind {
			pick = c
			break
		}
	}
	sub.Items = []sql.SelectItem{{Expr: pick.ref(g.rng)}}
	if g.rng.Float64() < 0.5 {
		sub.Where = g.where(innerCols, cols, depth-1)
	}
	return sql.InExpr{
		E:       lhs.ref(g.rng),
		Sub:     &sql.Query{Body: sub},
		Negated: g.rng.Intn(2) == 0,
	}
}

// cond draws a plain (subquery-free, except scalar aggregates)
// condition over cols, with the enclosing block's columns available for
// one level of correlation.
func (g *gen) cond(cols, outer []colInfo, depth int) sql.Expr {
	if depth > 0 && g.rng.Float64() < 0.35 {
		l := g.cond(cols, outer, depth-1)
		r := g.cond(cols, outer, depth-1)
		switch g.rng.Intn(3) {
		case 0:
			return sql.AndExpr{L: l, R: r}
		case 1:
			return sql.OrExpr{L: l, R: r}
		default:
			return sql.NotExpr{E: l}
		}
	}
	c := cols[g.rng.Intn(len(cols))]
	roll := g.rng.Float64()
	switch {
	case roll < 0.12:
		return sql.IsNullExpr{E: c.ref(g.rng), Negated: g.rng.Intn(2) == 0}
	case roll < 0.24 && (c.kind == value.KindInt || c.kind == value.KindString):
		// IN value list.
		pool := constPool(c.kind)
		n := 1 + g.rng.Intn(2)
		list := make([]sql.Expr, n)
		for i := range list {
			list[i] = litExpr(pool[g.rng.Intn(len(pool))])
		}
		return sql.InExpr{E: c.ref(g.rng), List: list, Negated: g.rng.Intn(2) == 0}
	case roll < 0.34 && c.kind == value.KindString:
		pats := []string{"%", "x%", "%y", "_", "%x%"}
		return sql.LikeExpr{
			L:       c.ref(g.rng),
			Pattern: sql.StrLit{Text: pats[g.rng.Intn(len(pats))]},
			Negated: g.rng.Intn(2) == 0,
		}
	case roll < 0.42 && len(outer) > 0:
		// Correlation: compare with an enclosing-block column of the
		// same kind when one exists.
		for _, o := range shuffled(g.rng, outer) {
			if o.kind == c.kind {
				return sql.CmpExpr{Op: cmpOps[g.rng.Intn(len(cmpOps))], L: c.ref(g.rng), R: o.ref(g.rng)}
			}
		}
		fallthrough
	case roll < 0.52 && (c.kind == value.KindInt || c.kind == value.KindFloat):
		// Scalar aggregate subquery operand (uncorrelated; the paper
		// treats these as black-box constants).
		if depth > 0 && g.rng.Float64() < 0.3 {
			return sql.CmpExpr{
				Op: cmpOps[g.rng.Intn(len(cmpOps))],
				L:  c.ref(g.rng),
				R:  sql.SubqueryExpr{Q: g.scalarAggQuery()},
			}
		}
		fallthrough
	default:
		// Plain comparison against a same-kind column or a literal.
		if g.rng.Float64() < 0.5 {
			for _, o := range shuffled(g.rng, cols) {
				if o.kind == c.kind {
					return sql.CmpExpr{Op: cmpOps[g.rng.Intn(len(cmpOps))], L: c.ref(g.rng), R: o.ref(g.rng)}
				}
			}
		}
		if c.kind == value.KindBool {
			// No boolean literals in the dialect; test via IS NULL.
			return sql.IsNullExpr{E: c.ref(g.rng), Negated: g.rng.Intn(2) == 0}
		}
		pool := constPool(c.kind)
		return sql.CmpExpr{
			Op: cmpOps[g.rng.Intn(len(cmpOps))],
			L:  c.ref(g.rng),
			R:  litExpr(pool[g.rng.Intn(len(pool))]),
		}
	}
}

// scalarAggQuery draws an uncorrelated scalar aggregate subquery over a
// numeric column (or COUNT(*)) of a random relation.
func (g *gen) scalarAggQuery() *sql.Query {
	names := g.sch.Names()
	name := names[g.rng.Intn(len(names))]
	rel, _ := g.sch.Relation(name)
	sub := &sql.SelectStmt{From: []sql.TableRef{{Table: name}}}
	var numeric []colInfo
	cols := make([]colInfo, rel.Arity())
	for i, a := range rel.Attrs {
		cols[i] = colInfo{qual: name, name: a.Name, kind: a.Type}
		if a.Type == value.KindInt || a.Type == value.KindFloat {
			numeric = append(numeric, cols[i])
		}
	}
	if len(numeric) == 0 || g.rng.Float64() < 0.3 {
		sub.Items = []sql.SelectItem{{Expr: sql.AggCall{Func: "COUNT"}}}
	} else {
		c := numeric[g.rng.Intn(len(numeric))]
		fn := []string{"MIN", "MAX", "SUM", "AVG"}[g.rng.Intn(4)]
		sub.Items = []sql.SelectItem{{Expr: sql.AggCall{Func: fn, Arg: c.ref(g.rng)}}}
	}
	if g.rng.Float64() < 0.4 {
		sub.Where = g.cond(cols, nil, 1)
	}
	return &sql.Query{Body: sub}
}

// litExpr renders a constant value as a literal AST node.
func litExpr(v value.Value) sql.Expr {
	switch v.Kind() {
	case value.KindInt:
		return sql.NumLit{Text: fmt.Sprintf("%d", v.AsInt())}
	case value.KindFloat:
		return sql.NumLit{Text: fmt.Sprintf("%g", v.AsFloat())}
	case value.KindString:
		return sql.StrLit{Text: v.AsString()}
	default:
		panic(fmt.Sprintf("qgen: no literal syntax for kind %s", v.Kind()))
	}
}

func shuffled(rng *rand.Rand, cols []colInfo) []colInfo {
	out := make([]colInfo, len(cols))
	for i, p := range rng.Perm(len(cols)) {
		out[i] = cols[p]
	}
	return out
}
