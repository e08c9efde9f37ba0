// Package eval executes relational-algebra expressions over incomplete
// databases.
//
// The evaluator supports the two evaluation modes studied in the paper:
// SQL's three-valued logic (EvalSQL in the paper's notation) and naive
// evaluation over marked nulls. It contains a deliberately simple,
// PostgreSQL-like planning layer whose behaviour mirrors the effects the
// paper reports from a production optimizer:
//
//   - SELECT-FROM-WHERE blocks (Select over Product chains) are planned
//     greedily with hash equi-joins;
//   - semijoins/antijoins (EXISTS / NOT EXISTS) use a hash strategy when
//     the condition contains pure column-to-column equality conjuncts,
//     and fall back to a nested loop otherwise — in particular when the
//     correctness translation turns A = B into (A = B OR B IS NULL),
//     destroying the extractable hash key exactly as described in
//     Section 7 of the paper;
//   - uncorrelated subqueries are evaluated once and short-circuit the
//     enclosing (anti-)semijoin, which is what makes the translated Q2
//     thousands of times faster than the original;
//   - structurally identical subplans are cached and reused, the
//     equivalent of the WITH views the paper introduces for Q4.
package eval

import (
	"errors"
	"fmt"
	"slices"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// ErrTooLarge matches any evaluation stopped by a resource budget —
// rows, cost units, or estimated memory. The legacy translation of
// [Libkin, TODS 2016] hits this on all but trivial instances (Section 5
// of the paper: "some of the queries start running out of memory
// already on instances with fewer than 10³ tuples"); this error is our
// analogue of running out of memory.
//
// It is an alias for guard.ErrBudget: every budget trip is a
// *guard.LimitError whose specific sentinel (guard.ErrRowBudget,
// ErrCostBudget, ErrMemBudget) also matches this grouping sentinel via
// errors.Is, so existing callers keep working unchanged.
//
// vetcert:ignore sentinelhygiene: grandfathered pure alias — it predates
// the guard taxonomy (PR 4) and the public API re-exports it; a pure
// alias is errors.Is-transparent, and no new aliases may be added.
var ErrTooLarge = guard.ErrBudget

// ErrPoisoned reports reuse of an evaluator after it recovered an
// internal error (a panic). A panic may leave caches or counters in an
// arbitrary state, so the evaluator refuses to run again rather than
// silently serving corrupt state.
var ErrPoisoned = errors.New("eval: evaluator poisoned by a previous internal error")

// Options configure an evaluation.
type Options struct {
	// Semantics selects null behaviour: value.SQL3VL (default) or
	// value.Naive (marked-null naive evaluation).
	Semantics value.Semantics

	// Governor supplies cancellation, deadlines, row/cost/memory
	// budgets, and (in tests) fault-injection hooks for the
	// evaluation. When nil, New builds a background Governor with the
	// default limits (guard.DefaultMaxRows, guard.DefaultMaxCostUnits).
	Governor *guard.Governor

	// Parallelism is the number of worker goroutines data-parallel
	// operators may use: 0 means GOMAXPROCS, 1 forces sequential
	// execution, N > 1 uses N workers. Results are deterministic at any
	// setting: workers scan contiguous partitions of the probe side and
	// their outputs are concatenated in partition order, so the result
	// table and the Stats counters are identical to a sequential run.
	Parallelism int

	// Shards is not read by the evaluator: keep loops visit their rows
	// in input order at every setting. It is kept only because the
	// benchmark module (bench/) still sets it.
	Shards int

	// NoHashJoin disables hash strategies everywhere, forcing nested
	// loops. Used by ablation benchmarks.
	NoHashJoin bool

	// NoSubplanCache disables shared-subplan (WITH-view) caching.
	NoSubplanCache bool

	// NoShortCircuit disables the uncorrelated-subquery short circuit.
	NoShortCircuit bool

	// Shape is not read by the evaluator. It is kept only because the
	// benchmark module (bench/) still sets it; see Shape.
	Shape *Shape

	// Hints carries the per-operator execution hints of a plan the
	// planner lowered (see PlanHints), for the semantics it was lowered
	// for. Nil — the default — runs every operator with its unhinted
	// strategy. Hints never change results, only how they are computed.
	Hints *PlanHints

	// Trace enables plan tracing for Explain.
	Trace bool
}

// Stats accumulates execution counters across one evaluation.
type Stats struct {
	// CostUnits counts elementary row operations: rows scanned, hash
	// probes, and nested-loop condition evaluations. Nested loops
	// contribute |L|·|R|, hash joins |L|+|R|.
	CostUnits int64
	// NestedLoopJoins counts semi/anti/join operators executed with the
	// nested-loop strategy, a join block's pure Cartesian steps included.
	NestedLoopJoins int
	// HashJoins counts operators executed with a hash strategy.
	HashJoins int
	// UnifyJoins counts operators executed on a wild-bucket index (hash
	// buckets for null-free keys plus a wild list of null-keyed rows):
	// unification edges `a = b OR … IS NULL` and R ⋉⇑ S.
	UnifyJoins int
	// ShortCircuits counts uncorrelated subqueries answered once.
	ShortCircuits int
	// CacheHits counts subplan results served from the view cache.
	CacheHits int
	// ShardScatters is always 0: nothing routes probe rows any more. It
	// is kept only because the benchmark module (bench/) still reads it.
	ShardScatters int
	// PlanCacheHits counts prepared executions served from the plan
	// cache (parse, compile and translate all skipped);
	// PlanCacheMisses counts executions that compiled and cached a new
	// plan. Set by the facade's Prepare/Execute path, not by the
	// evaluator itself.
	PlanCacheHits   int
	PlanCacheMisses int
	// MemHighWaterBytes is the governor's peak estimated intermediate
	// memory over this evaluation (guard.Governor.MemHighWater),
	// captured when Eval returns. With a shared governor it reports the
	// peak across everything that governor has overseen so far.
	MemHighWaterBytes int64
}

// Evaluator executes expressions against one database.
type Evaluator struct {
	db   *table.Database
	opts Options
	gov  *guard.Governor

	stats  Stats
	cache  map[string]*table.Table
	scalar map[string]value.Value
	trace  []traceEntry
	depth  int

	// ledger tracks live memory charges: estimated bytes charged per
	// buffered table, released when the enclosing operator finishes. View-cached tables are pinned —
	// removed from the ledger so their charge outlives the operator
	// (and, with a shared governor, the query) that built them.
	ledger map[*table.Table]int64
	// frames stacks the tables charged inside each open buffered
	// operator, so popFrame can drop everything a scope consumed.
	frames [][]*table.Table
	// shared holds view keys the plan uses more than once; buildIter
	// buffers those through the view cache (see Views.Shared).
	shared map[string]bool

	// poisoned is set when a panic was recovered out of this
	// evaluator; see ErrPoisoned.
	poisoned bool

	// ticks counts coordinator-loop iterations for amortized
	// cancellation polling; see tick.
	ticks int

	// aggNulls counts the evaluator-local marks minted for empty
	// aggregate results; see freshAggNull.
	aggNulls int64
}

// freshAggNull mints a marked null for an empty SUM/AVG/MIN/MAX result.
// SQL's aggregate NULL is a Codd null — a fresh unknown per occurrence —
// so every result gets its own mark; sharing one mark would make two
// unrelated aggregate NULLs compare equal (and unify) under naive
// marked-null semantics. Marks are negative, which keeps them disjoint
// from the database's generator-minted marks (positive, see
// table.Database.FreshNull). Minting happens only on the coordinating
// goroutine (GroupBy and scalar-subquery evaluation are sequential), so
// the marks are deterministic at any Parallelism.
func (ev *Evaluator) freshAggNull() value.Value {
	ev.aggNulls++
	return value.Null(-ev.aggNulls)
}

// New returns an evaluator over db with the given options.
func New(db *table.Database, opts Options) *Evaluator {
	gov := opts.Governor
	if gov == nil {
		gov = guard.Background(guard.Limits{})
	}
	return &Evaluator{
		db:     db,
		opts:   opts,
		gov:    gov,
		cache:  map[string]*table.Table{},
		scalar: map[string]value.Value{},
		ledger: map[*table.Table]int64{},
		shared: map[string]bool{},
	}
}

// Stats returns the counters accumulated so far.
func (ev *Evaluator) Stats() Stats { return ev.stats }

// ResetStats clears the counters (the caches are kept).
func (ev *Evaluator) ResetStats() { ev.stats = Stats{}; ev.trace = nil }

// Governor returns the governor enforcing this evaluation's limits.
func (ev *Evaluator) Governor() *guard.Governor { return ev.gov }

// charge adds n elementary row operations to both the Stats counter
// and the governor's cumulative cost budget.
func (ev *Evaluator) charge(op string, n int64) error {
	ev.stats.CostUnits += n
	return ev.gov.ChargeCost(op, n)
}

// grownIndex charges an index grown by Insert to the memory governor:
// charge adds its growth since the last call, release returns the whole
// charge when the operator finishes.
type grownIndex struct {
	*table.Index
	gov     *guard.Governor
	op      string
	charged int64
}

func (ev *Evaluator) newGrownIndex(op string, size int) *grownIndex {
	return &grownIndex{Index: table.NewIndex(size), gov: ev.gov, op: op}
}

// charge adds the index's growth since the last call.
//
// vetcert:ignore membalance: the owning operator calls release when it
// finishes, a failed charge too.
func (x *grownIndex) charge() error {
	delta := x.EstimatedBytes() - x.charged
	x.charged += delta // ChargeMem adds before checking; keep release exact
	return x.gov.ChargeMem(x.op, delta)
}

func (x *grownIndex) release() {
	x.gov.ReleaseMem(x.charged)
	x.charged = 0
}

// pollEvery is the amortization interval for cancellation polling in
// hot loops: one O(1) Poll per this many iterations.
const pollEvery = 64

// tick polls for cancellation amortized over coordinator-loop
// iterations; call it once per row in loops that may run long.
func (ev *Evaluator) tick(op string) error {
	ev.ticks++
	if ev.ticks%pollEvery != 0 {
		return nil
	}
	return ev.gov.Poll(op)
}

// Eval evaluates e and returns its result. Panics escaping the
// evaluation — engine bugs, or injected faults in tests — are
// recovered into a *guard.InternalError carrying the stack, and the
// evaluator is poisoned: subsequent Eval calls fail with ErrPoisoned
// instead of serving possibly corrupt cached state.
//
// The view cache buffers e's shared subplans (Views.Shared), taken from
// the plan's Views when its hints carry them and from PlanViews(e)
// otherwise. A plan whose Views, made by the planner, rule out every
// hit runs without the cache, as do later roots of the same evaluator;
// an evaluator not given Views caches every subplan it drains, as
// callers that count on its materializations expect.
func (ev *Evaluator) Eval(e algebra.Expr) (t *table.Table, err error) {
	if ev.poisoned {
		return nil, ErrPoisoned
	}
	defer func() {
		if v := recover(); v != nil {
			t, err = nil, guard.NewInternalError("eval", v)
		}
		var ie *guard.InternalError
		if errors.As(err, &ie) {
			ev.poisoned = true
		}
		ev.stats.MemHighWaterBytes = ev.gov.MemHighWater()
	}()
	if !ev.opts.NoSubplanCache {
		views := ev.views()
		switch {
		case views == nil:
			views = PlanViews(e, new(JoinBlocks)) // for Shared alone: the cache stays on
		case views.NoHits:
			ev.opts.NoSubplanCache = true // no hit to lose, no key to render
		}
		for _, k := range views.Shared {
			ev.shared[k] = true
		}
	}
	return ev.drainExpr(e, true)
}

// evalChild evaluates a child expression of a buffered operator body:
// it drains a fresh iterator pipeline behind the buffered boundary.
// Every operator body evaluates its children through here, left before
// right, which fixes the minting order of freshAggNull marks.
func (ev *Evaluator) evalChild(e algebra.Expr) (*table.Table, error) {
	return ev.drainExpr(e, false)
}

// opName names an algebra node for error reports and operator paths.
func opName(e algebra.Expr) string {
	switch e.(type) {
	case algebra.Base:
		return "scan"
	case algebra.AdomPower:
		return "adom-power"
	case algebra.Select:
		return "select"
	case algebra.Project:
		return "project"
	case algebra.Product:
		return "product"
	case algebra.Union:
		return "union"
	case algebra.Intersect:
		return "intersect"
	case algebra.Diff:
		return "diff"
	case algebra.SemiJoin:
		return "semijoin"
	case algebra.UnifySemi:
		return "unify-semijoin"
	case algebra.Distinct:
		return "distinct"
	case algebra.Division:
		return "division"
	case algebra.GroupBy:
		return "group-by"
	case algebra.Sort:
		return "sort"
	case algebra.Limit:
		return "limit"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// evalUncached runs the body of a buffered operator. The streamable
// operators — Project, Union, Distinct, SemiJoin, Limit and selections
// outside a join block — never reach it: drainScope compiles them to
// iterator pipelines (see streamable).
func (ev *Evaluator) evalUncached(e algebra.Expr) (*table.Table, error) {
	ev.depth++
	defer func() { ev.depth-- }()
	// Cancellation and deadlines are observed at every operator
	// boundary (and, amortized, inside the hot loops below).
	if err := ev.gov.Poll(opName(e)); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case algebra.Base:
		t, _, err := ev.scan(e, nil)
		return t, err

	case algebra.AdomPower:
		return ev.evalAdomPower(e)

	case algebra.Select:
		// Only a SELECT-FROM-WHERE block buffers: a selection over fewer
		// than two product leaves (or with hash joins off) streams.
		return ev.planJoinBlock(algebra.Leaves(e.Child), e.Cond)

	case algebra.Product:
		l, err := ev.evalChild(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.evalChild(e.R)
		if err != nil {
			return nil, err
		}
		return ev.product(l, r)

	case algebra.Intersect:
		return ev.evalSetOp("intersect", e.L, e.R, true)

	case algebra.Diff:
		return ev.evalSetOp("diff", e.L, e.R, false)

	case algebra.UnifySemi:
		return ev.evalUnifySemi(e)

	case algebra.Division:
		return ev.evalDivision(e)

	case algebra.GroupBy:
		return ev.evalGroupBy(e)

	case algebra.Sort:
		return ev.evalSort(e)

	default:
		return nil, fmt.Errorf("eval: unknown expression %T", e)
	}
}

// productRows returns nL·nR, the size of a product, or a row-budget
// LimitError when it overflows or exceeds the budget.
func (ev *Evaluator) productRows(nL, nR int) (int, error) {
	n := nL * nR
	if nL != 0 && n/nL != nR {
		return 0, &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "product",
			Detail: fmt.Sprintf("product of %d × %d rows overflows", nL, nR)}
	}
	return n, ev.gov.CheckRows("product", n)
}

// product materializes l × r, guarding the row budget. It polls before
// it allocates, and its row slice grows with the rows made, at most
// doubling and never past n = |l|·|r|: with no row budget a
// cancellation or deadline is seen before the first row, and at worst
// pollEvery rows of l after it, not after n row headers exist.
func (ev *Evaluator) product(l, r *table.Table) (*table.Table, error) {
	n, err := ev.productRows(l.Len(), r.Len())
	if err != nil {
		return nil, err
	}
	if err := ev.gov.Poll("product"); err != nil {
		return nil, err
	}
	var rows []table.Row
	for _, lr := range l.Rows() {
		if err := ev.tick("product"); err != nil {
			return nil, err
		}
		if need := len(rows) + r.Len(); need > cap(rows) {
			rows = slices.Grow(rows, min(max(need, 2*cap(rows)), n)-len(rows))
		}
		for _, rr := range r.Rows() {
			nr := make(table.Row, 0, len(lr)+len(rr))
			nr = append(nr, lr...)
			nr = append(nr, rr...)
			rows = append(rows, nr)
		}
	}
	if err := ev.charge("product", int64(n)); err != nil {
		return nil, err
	}
	ev.note("product -> %d rows", len(rows))
	return table.FromRows(l.Arity()+r.Arity(), rows), nil
}

// evalAdomPower materializes adomᵏ, the k-fold power of the active
// domain — the operation that dooms the legacy translation.
func (ev *Evaluator) evalAdomPower(e algebra.AdomPower) (*table.Table, error) {
	dom := ev.db.ActiveDomain()
	size := 1
	for i := 0; i < e.K; i++ {
		if len(dom) != 0 && size > ev.gov.MaxRows()/len(dom) {
			return nil, &guard.LimitError{Sentinel: guard.ErrRowBudget, Op: "adom-power",
				Detail: fmt.Sprintf("adom^%d with |adom| = %d over budget of %d rows", e.K, len(dom), ev.gov.MaxRows())}
		}
		size *= len(dom)
	}
	rows := make([]table.Row, 0, size)
	row := make(table.Row, e.K)
	var genErr error
	var gen func(pos int)
	gen = func(pos int) {
		if genErr != nil {
			return
		}
		if pos == e.K {
			if genErr = ev.tick("adom-power"); genErr != nil {
				return
			}
			nr := make(table.Row, e.K)
			copy(nr, row)
			rows = append(rows, nr)
			return
		}
		for _, v := range dom {
			row[pos] = v
			gen(pos + 1)
		}
	}
	gen(0)
	if genErr != nil {
		return nil, genErr
	}
	if err := ev.charge("adom-power", int64(size)); err != nil {
		return nil, err
	}
	ev.note("adom^%d -> %d rows", e.K, len(rows))
	return table.FromRows(e.K, rows), nil
}

// evalSetOp executes INTERSECT (in) or EXCEPT (!in): the distinct rows
// of l that are (are not) in r, first occurrences in l's order. Rows
// match by mark-aware identity.
func (ev *Evaluator) evalSetOp(op string, lExpr, rExpr algebra.Expr, in bool) (*table.Table, error) {
	l, err := ev.evalChild(lExpr)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalChild(rExpr)
	if err != nil {
		return nil, err
	}
	all := rangeInts(l.Arity())
	rIdx := table.BuildIndex(r.Rows(), all, table.NullsByMark, r.Len(), nil)
	mem := rIdx.EstimatedBytes()
	defer ev.gov.ReleaseMem(mem) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem(op, mem); err != nil {
		return nil, err
	}
	seen := ev.newGrownIndex(op, 0)
	defer seen.release()
	var rows []table.Row
	var key []byte
	for i, row := range l.Rows() {
		if i%batchSize == 0 {
			if err := seen.charge(); err != nil {
				return nil, err
			}
		}
		cur := rIdx.Probe(row, all, &key)
		if _, found := cur.Next(); found != in {
			continue
		}
		if _, fresh := seen.Insert(row, all); fresh {
			rows = append(rows, row)
		}
	}
	if err := seen.charge(); err != nil {
		return nil, err
	}
	if err := ev.charge(op, int64(l.Len()+r.Len())); err != nil {
		return nil, err
	}
	ev.note("%s -> %d rows", op, len(rows))
	return table.FromRows(l.Arity(), rows), nil
}

// evalDivision executes L ÷ R: a prefix of L, in first-seen order, is
// in the answer when L holds it followed by every row of R. Membership
// is by exact row identity (mark-aware), matching the set-based
// definition.
func (ev *Evaluator) evalDivision(e algebra.Division) (*table.Table, error) {
	l, err := ev.evalChild(e.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.evalChild(e.R)
	if err != nil {
		return nil, err
	}
	nPre := e.L.Arity() - e.R.Arity()
	if nPre < 0 {
		return nil, fmt.Errorf("eval: division of arity %d by arity %d", e.L.Arity(), e.R.Arity())
	}
	lAll, rAll := rangeInts(e.L.Arity()), rangeInts(e.R.Arity())
	var need []table.Row // R's distinct rows
	distinct := ev.newGrownIndex("division", r.Len())
	defer distinct.release()
	for _, w := range r.Rows() {
		if _, fresh := distinct.Insert(w, rAll); fresh {
			need = append(need, w)
		}
	}
	if err := distinct.charge(); err != nil {
		return nil, err
	}
	// Charge the projected quadratic cost up front so the loop below
	// degrades with ErrCostBudget instead of hanging; the per-row
	// Stats increments below are reporting, not governance.
	cost := int64(l.Len()) + int64(l.Len())*int64(len(need))
	if err := ev.gov.ChargeCost("division", cost); err != nil {
		return nil, err
	}
	has := table.BuildIndex(l.Rows(), lAll, table.NullsByMark, l.Len(), nil)
	mem := has.EstimatedBytes()
	defer ev.gov.ReleaseMem(mem) // a failed charge too: ChargeMem adds before checking
	if err := ev.gov.ChargeMem("division", mem); err != nil {
		return nil, err
	}
	prefixes := ev.newGrownIndex("division", 0)
	defer prefixes.release()
	var rows []table.Row
	row := make(table.Row, e.L.Arity())
	var key []byte
	for i, lr := range l.Rows() {
		ev.stats.CostUnits++
		if err := ev.tick("division"); err != nil {
			return nil, err
		}
		if i%batchSize == 0 {
			if err := prefixes.charge(); err != nil {
				return nil, err
			}
		}
		if _, fresh := prefixes.Insert(lr, lAll[:nPre]); !fresh {
			continue
		}
		copy(row, lr[:nPre])
		covers := true
		for _, w := range need {
			ev.stats.CostUnits++
			copy(row[nPre:], w)
			cur := has.Probe(row, lAll, &key)
			if _, covers = cur.Next(); !covers {
				break
			}
		}
		if covers {
			rows = append(rows, append(table.Row{}, lr[:nPre]...))
		}
	}
	if err := prefixes.charge(); err != nil {
		return nil, err
	}
	ev.note("division %d ÷ %d -> %d rows", l.Len(), r.Len(), len(rows))
	return table.FromRows(nPre, rows), nil
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
