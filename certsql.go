// Package certsql is an in-memory SQL engine with a *certain-answer*
// evaluation mode for incomplete databases (databases with NULLs).
//
// It reproduces Guagliardo & Libkin, "Making SQL Queries Correct on
// Incomplete Databases: A Feasibility Study" (PODS 2016): standard SQL
// evaluation over nulls returns false positives — answers that are not
// certain — for queries with negation, and a syntactic translation
// Q ↦ Q⁺ repairs this at a small cost. The package offers both modes:
//
//	db.Query("SELECT o_orderkey FROM orders WHERE NOT EXISTS (...)", nil)
//	db.Query("SELECT CERTAIN o_orderkey FROM orders WHERE NOT EXISTS (...)", nil)
//
// The second form — the paper's proposed SELECT CERTAIN — evaluates the
// translated query Q⁺, whose answers are guaranteed to be certain: true
// under every interpretation of the missing values.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured reproduction results.
package certsql

import (
	"context"
	"fmt"

	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/rewrite"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Params binds $name query parameters. Values may be Go scalars (int,
// int64, float64, string, bool), Value, or slices for IN-lists.
type Params = compile.Params

// Value is one database entry: a typed constant or a marked null.
type Value = value.Value

// Convenience constructors for values.
var (
	// Int makes an integer value.
	Int = value.Int
	// Float makes a floating-point value.
	Float = value.Float
	// Str makes a string value.
	Str = value.Str
	// Bool makes a boolean value.
	Bool = value.Bool
)

// Date parses a "YYYY-MM-DD" date value; it panics on malformed input
// (use value-level APIs for checked parsing).
func Date(s string) Value { return value.MustDate(s) }

// NULL is a sentinel accepted by Insert: each occurrence becomes a
// fresh marked null (a Codd null, the model of SQL's NULL).
var NULL = nullSentinel{}

type nullSentinel struct{}

// Options tune evaluation; the zero value is the paper's recommended
// configuration (SQL 3VL semantics with all translation optimizations).
type Options struct {
	// Naive evaluates with naive marked-null semantics (⊥ᵢ = ⊥ᵢ is
	// true) instead of SQL's three-valued logic, and makes SELECT
	// CERTAIN use the original Section 6 condition translations rather
	// than the SQL-adjusted Section 7 ones.
	Naive bool

	// NoOrSplit disables the OR-splitting rewrite of NOT EXISTS
	// conditions (Section 7); NoSimplifyNulls keeps all introduced
	// IS NULL tests even on non-nullable columns; NoKeySimplify keeps
	// unification anti-semijoins instead of set differences under keys.
	// These exist for the ablation experiments.
	NoOrSplit       bool
	NoSimplifyNulls bool
	NoKeySimplify   bool

	// NoHashJoin, NoViewCache and NoShortCircuit disable the respective
	// executor strategies (ablations mirroring the paper's optimizer
	// discussion).
	NoHashJoin     bool
	NoViewCache    bool
	NoShortCircuit bool

	// NaivePlanner disables the cost-based planner's rules and hints and
	// runs the plan as translation produced it, lowered (plan.Lower) like
	// every plan — the paper-faithful greedy configuration, kept as an
	// ablation. The planner never changes results (its rewrites are
	// byte-identity-preserving and difftest enforces that), so this
	// toggle only trades plan quality. It is part of the plan-cache key:
	// a cached plan holds one route's plans.
	NaivePlanner bool

	// NoAnalyzerFastPath is not read: SELECT CERTAIN always runs Q⁺. It
	// is kept only because the benchmark module (bench/) still sets it.
	NoAnalyzerFastPath bool

	// MaxRows bounds intermediate results, in rows (0 = default 4M,
	// negative = unlimited).
	MaxRows int

	// MaxCostUnits bounds cumulative elementary row operations, so
	// quadratic corners degrade with an error instead of hanging
	// (0 = default 2³⁰, negative = unlimited).
	MaxCostUnits int64

	// MaxMemBytes bounds the cumulative estimated bytes of materialized
	// intermediate results. Estimation is coarse, so the memory budget
	// is opt-in: zero or negative means unlimited.
	MaxMemBytes int64

	// Degrade opts into the degradation ladder for potential-answer
	// queries: when the Q⋆ translation exceeds a resource budget, the
	// query is re-evaluated on the certain-answer route under a fresh
	// budget and the result carries Degraded plus a machine-readable
	// Warning. Certain answers under-approximate where potential
	// answers over-approximate, so the degraded result is still sound —
	// every returned row is a guaranteed answer. Cancellation and
	// deadline expiry never degrade.
	Degrade bool

	// Guard, when non-nil, supplies the Governor directly — overriding
	// the budget fields above and any context passed to the *Context
	// entry points. A Governor's budgets are cumulative, so sharing one
	// across queries shares the budgets; the caller also reads its
	// accounting afterwards (e.g. MemHighWater).
	Guard *guard.Governor

	// Parallelism sets the number of workers the executor fans the
	// probe side of joins, semijoins and filters out over: 0 uses
	// GOMAXPROCS, 1 forces sequential execution, N>1 uses N workers.
	// Results are deterministic — byte-identical at any setting.
	Parallelism int

	// Shards is not read by the engine: the executor visits probe rows
	// in input order at every setting. It is kept only because the
	// benchmark module (bench/) still sets it.
	Shards int

	// Trace records an EXPLAIN ANALYZE-style plan trace, retrievable
	// from Result.Trace.
	Trace bool
}

func (o Options) semantics() value.Semantics {
	if o.Naive {
		return value.Naive
	}
	return value.SQL3VL
}

func (o Options) limits() guard.Limits {
	return guard.Limits{MaxRows: o.MaxRows, MaxCostUnits: o.MaxCostUnits, MaxMemBytes: o.MaxMemBytes}
}

// governor resolves the Governor for one query: an explicit Guard wins,
// otherwise a fresh one is built from the context and budget fields.
func (o Options) governor(ctx context.Context) *guard.Governor {
	if o.Guard != nil {
		return o.Guard
	}
	return guard.New(ctx, o.limits())
}

func (o Options) evalOptions(gov *guard.Governor) eval.Options {
	return eval.Options{
		Semantics:      o.semantics(),
		Governor:       gov,
		Parallelism:    o.Parallelism,
		NoHashJoin:     o.NoHashJoin,
		NoSubplanCache: o.NoViewCache,
		NoShortCircuit: o.NoShortCircuit,
		Trace:          o.Trace,
	}
}

// physical is what the planner's lowering reads of the options.
func (o Options) physical() plan.Physical {
	return plan.Physical{Semantics: o.semantics(), NoViewCache: o.NoViewCache}
}

func (o Options) translator(db *DB) *certain.Translator {
	mode := certain.ModeSQL
	if o.Naive {
		mode = certain.ModeNaive
	}
	return &certain.Translator{
		Sch:           db.d.Schema,
		Mode:          mode,
		SimplifyNulls: !o.NoSimplifyNulls,
		SplitOrs:      !o.NoOrSplit,
		KeySimplify:   !o.NoKeySimplify,
	}
}

// DB is an in-memory incomplete database.
//
// A DB also carries the plan cache the prepared-execution path reads
// (see Prepare). A plan is keyed on the schema it was compiled against,
// not on the data, so it stays valid however the data changes. The
// serving layer builds a DB view per published snapshot with
// FromSnapshot, sharing one cache across views: every snapshot of a
// catalog shares its schema, so a publish reuses every cached plan.
type DB struct {
	d      *table.Database
	catver uint64
	plans  *plancache.Cache
}

// wrap adopts an internal database (used by the TPC-H constructors).
func wrap(d *table.Database) *DB {
	return &DB{d: d, plans: plancache.New(0)}
}

// FromInternal adopts an internal database, for in-module drivers such
// as the differential-testing oracle that build databases directly.
func FromInternal(d *table.Database) *DB { return wrap(d) }

// FromSnapshot adopts one published snapshot of a table.Store: a
// read-only view of d at the given catalog version, whose prepared
// executions key into the shared plan cache under d's schema. Plans
// compiled against any snapshot of the same catalog hit; the version
// only labels results (CatalogVersion). A nil cache allocates a
// private one (useful in tests).
func FromSnapshot(d *table.Database, version uint64, plans *plancache.Cache) *DB {
	if plans == nil {
		plans = plancache.New(0)
	}
	return &DB{d: d, catver: version, plans: plans}
}

// CatalogVersion returns the snapshot version this DB view was built
// from (0 for a standalone database).
func (db *DB) CatalogVersion() uint64 { return db.catver }

// PlanCache exposes the DB's plan cache, for metrics endpoints.
func (db *DB) PlanCache() *plancache.Cache { return db.plans }

// Insert appends one row to a table. Use NULL for missing values; each
// NULL becomes a fresh marked null.
func (db *DB) Insert(tableName string, vals ...any) error {
	row := make(table.Row, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case nullSentinel:
			row[i] = db.d.FreshNull()
		case Value:
			row[i] = v
		case int:
			row[i] = value.Int(int64(v))
		case int64:
			row[i] = value.Int(v)
		case float64:
			row[i] = value.Float(v)
		case string:
			row[i] = value.Str(v)
		case bool:
			row[i] = value.Bool(v)
		default:
			return fmt.Errorf("certsql: unsupported value %T in insert", v)
		}
	}
	return db.d.Insert(tableName, row)
}

// FreshNull mints a marked null usable in Insert; repeating the same
// returned value expresses that two positions hold the *same* unknown
// value (a marked, non-Codd null).
func (db *DB) FreshNull() Value { return db.d.FreshNull() }

// NotNullViolation is the typed error for a null offered to a column
// the schema declares NOT NULL: Insert (and therefore LoadCSV) rejects
// such a row. Retrieve it with errors.As.
type NotNullViolation = table.NotNullViolation

// TableLen returns the number of rows in a table.
func (db *DB) TableLen(tableName string) (int, error) {
	t, err := db.d.Table(tableName)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// NullCount returns the number of null entries in the database.
func (db *DB) NullCount() int { return db.d.NullCount() }

// Internal returns the underlying database, for the experiment drivers
// in this module.
func (db *DB) Internal() *table.Database { return db.d }

// Query parses and evaluates a SQL query. A `SELECT CERTAIN` query is
// translated to Q⁺ first and therefore returns only certain answers;
// a plain SELECT uses standard SQL (3VL) evaluation.
func (db *DB) Query(text string, params Params) (*Result, error) {
	return db.QueryWithOptions(text, params, Options{})
}

// QueryContext is Query bounded by ctx: cancellation or deadline
// expiry aborts the evaluation with an error matching ErrCanceled or
// ErrDeadline. An already-canceled context is detected in O(1), before
// the query is even parsed.
func (db *DB) QueryContext(ctx context.Context, text string, params Params) (*Result, error) {
	return db.QueryWithOptionsContext(ctx, text, params, Options{})
}

// QueryWithOptions is Query with explicit evaluation options.
func (db *DB) QueryWithOptions(text string, params Params, opts Options) (*Result, error) {
	return db.QueryWithOptionsContext(context.Background(), text, params, opts)
}

// QueryWithOptionsContext is the fully general query entry point:
// explicit options, bounded by ctx.
func (db *DB) QueryWithOptionsContext(ctx context.Context, text string, params Params, opts Options) (*Result, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("query"); err != nil {
		return nil, err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.runParsed(gov, q, params, opts)
}

// QueryCertain evaluates the query's certain-answer translation Q⁺
// regardless of whether CERTAIN was written in the query text.
func (db *DB) QueryCertain(text string, params Params) (*Result, error) {
	return db.QueryCertainWithOptionsContext(context.Background(), text, params, Options{})
}

// QueryCertainContext is QueryCertain bounded by ctx.
func (db *DB) QueryCertainContext(ctx context.Context, text string, params Params) (*Result, error) {
	return db.QueryCertainWithOptionsContext(ctx, text, params, Options{})
}

// QueryCertainWithOptions is QueryCertain with explicit options.
func (db *DB) QueryCertainWithOptions(text string, params Params, opts Options) (*Result, error) {
	return db.QueryCertainWithOptionsContext(context.Background(), text, params, opts)
}

// QueryCertainWithOptionsContext is QueryCertain with explicit options,
// bounded by ctx.
func (db *DB) QueryCertainWithOptionsContext(ctx context.Context, text string, params Params, opts Options) (*Result, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("query"); err != nil {
		return nil, err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	forceCertain(q)
	return db.runParsed(gov, q, params, opts)
}

// ErrTooLarge reports that evaluation exceeded a resource budget (the
// analogue of running out of memory; the legacy Figure-2 translation
// reliably triggers it). It is the same sentinel as ErrBudget.
var ErrTooLarge = eval.ErrTooLarge

// Typed failure sentinels, re-exported from internal/guard for
// errors.Is dispatch at call sites:
//
//	ErrBudget matches every resource-budget trip (rows, memory, cost);
//	ErrRowBudget, ErrCostBudget and ErrMemBudget narrow it to the
//	specific budget; ErrCanceled and ErrDeadline report context
//	cancellation and deadline expiry and never match ErrBudget.
var (
	ErrBudget     = guard.ErrBudget
	ErrRowBudget  = guard.ErrRowBudget
	ErrCostBudget = guard.ErrCostBudget
	ErrMemBudget  = guard.ErrMemBudget
	ErrCanceled   = guard.ErrCanceled
	ErrDeadline   = guard.ErrDeadline
)

// ErrUntranslatable reports that a query admits no certain-answer
// translation (aggregation, ORDER BY, LIMIT, or a non-relation divisor
// — see the paper's §8); standard evaluation still works on it.
var ErrUntranslatable = certain.ErrUntranslatable

// InternalError is a recovered engine panic: the public API reports
// bugs as errors carrying the operator path and stack instead of
// crashing the caller. Retrieve with errors.As.
type InternalError = guard.InternalError

// leadSelect returns the SelectStmt that carries the CERTAIN/POSSIBLE
// flags: the body itself, or the leftmost operand of a set operation
// (where the parser attaches the keyword for e.g. `SELECT CERTAIN ...
// UNION ...`).
func leadSelect(body sql.QueryExpr) *sql.SelectStmt {
	for {
		switch b := body.(type) {
		case *sql.SelectStmt:
			return b
		case sql.SetOp:
			body = b.L
		default:
			return nil
		}
	}
}

func forceCertain(q *sql.Query) {
	if sel := leadSelect(q.Body); sel != nil {
		sel.Certain = true
		sel.Possible = false
	}
}

func forcePossible(q *sql.Query) {
	if sel := leadSelect(q.Body); sel != nil {
		sel.Possible = true
		sel.Certain = false
	}
}

// takeMode reads and strips the CERTAIN/POSSIBLE flags (the compiler
// does not know them).
func takeMode(q *sql.Query) plancache.Mode {
	mode := plancache.ModeStandard
	if sel := leadSelect(q.Body); sel != nil {
		switch {
		case sel.Certain:
			mode = plancache.ModeCertain
		case sel.Possible:
			mode = plancache.ModePossible
		}
		sel.Certain, sel.Possible = false, false
	}
	return mode
}

// runParsed runs an ad-hoc query: the prepared route's plan, compiled
// for this one execution and not cached.
func (db *DB) runParsed(gov *guard.Governor, q *sql.Query, params Params, opts Options) (*Result, error) {
	pl, err := db.compilePlan(gov, q, params, opts)
	if err != nil {
		return nil, err
	}
	return db.runPlan(gov, pl, opts)
}

// QueryPossible evaluates the query's potential-answer translation Q⋆:
// a compact over-approximation — every answer the query can produce
// under *some* interpretation of the nulls is an instantiation of a
// returned tuple (Definition 3 / Lemma 2 of the paper). Together with
// QueryCertain this brackets the truth:
//
//	certain answers ⊆ answers under any interpretation ⊆ v(possible)
func (db *DB) QueryPossible(text string, params Params) (*Result, error) {
	return db.QueryPossibleWithOptionsContext(context.Background(), text, params, Options{})
}

// QueryPossibleContext is QueryPossible bounded by ctx.
func (db *DB) QueryPossibleContext(ctx context.Context, text string, params Params) (*Result, error) {
	return db.QueryPossibleWithOptionsContext(ctx, text, params, Options{})
}

// QueryPossibleWithOptions is QueryPossible with explicit options.
func (db *DB) QueryPossibleWithOptions(text string, params Params, opts Options) (*Result, error) {
	return db.QueryPossibleWithOptionsContext(context.Background(), text, params, opts)
}

// QueryPossibleWithOptionsContext is QueryPossible with explicit
// options, bounded by ctx.
func (db *DB) QueryPossibleWithOptionsContext(ctx context.Context, text string, params Params, opts Options) (*Result, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("query"); err != nil {
		return nil, err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	forcePossible(q)
	return db.runParsed(gov, q, params, opts)
}

// Rewrite returns the SQL text of the certain-answer translation Q⁺ of
// the query — direct SQL-to-SQL rewriting. The result is what one would
// run on a conventional DBMS to obtain certain answers (the paper's
// appendix queries Q⁺1–Q⁺4 are reproduced this way).
func (db *DB) Rewrite(text string, params Params) (string, error) {
	return db.RewriteWithOptions(text, params, Options{})
}

// RewriteContext is Rewrite bounded by ctx. Translation is pure CPU
// work with no data-dependent loops, so the context is honored with an
// O(1) pre-check rather than interior polling.
func (db *DB) RewriteContext(ctx context.Context, text string, params Params) (string, error) {
	if err := guard.New(ctx, guard.Limits{}).Poll("rewrite"); err != nil {
		return "", err
	}
	return db.RewriteWithOptions(text, params, Options{})
}

// RewriteWithOptions is Rewrite with explicit options.
func (db *DB) RewriteWithOptions(text string, params Params, opts Options) (string, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	takeMode(q)
	compiled, err := compile.Compile(q, db.d.Schema, params)
	if err != nil {
		return "", err
	}
	if err := certain.CheckTranslatable(compiled.Expr); err != nil {
		return "", err
	}
	plus := opts.translator(db).Plus(compiled.Expr)
	return rewrite.ToSQL(plus, db.d.Schema)
}

// RewritePossible returns the SQL text of the potential-answer
// translation Q⋆ — the dual of Rewrite, usable on a conventional DBMS
// to over-approximate the query under unknown values.
func (db *DB) RewritePossible(text string, params Params) (string, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	takeMode(q)
	compiled, err := compile.Compile(q, db.d.Schema, params)
	if err != nil {
		return "", err
	}
	if err := certain.CheckTranslatable(compiled.Expr); err != nil {
		return "", err
	}
	star := (Options{}).translator(db).Star(compiled.Expr)
	return rewrite.ToSQL(star, db.d.Schema)
}

// CertainGroundTruth computes the exact certain answers cert(Q, D) by
// brute-force valuation enumeration, each valuation evaluated on the
// definitional evaluator (internal/refeval), never on the engine.
// Computing certain answers is coNP-hard, so this is only feasible on
// small instances; it returns an error wrapping
// certain.ErrBruteForceTooLarge beyond its budget. A query with a LIMIT
// is refused before the first valuation: which rows come first is not
// fixed, so there is nothing certain to compute. It takes no Options and
// fans the enumeration out over GOMAXPROCS workers.
func (db *DB) CertainGroundTruth(text string, params Params) (*Result, error) {
	return db.CertainGroundTruthContext(context.Background(), text, params)
}

// CertainGroundTruthContext is CertainGroundTruth bounded by ctx: the
// valuation enumeration polls once per valuation, so cancellation and
// deadlines interrupt even coNP-hard instances promptly.
func (db *DB) CertainGroundTruthContext(ctx context.Context, text string, params Params) (*Result, error) {
	gov := guard.New(ctx, guard.Limits{})
	if err := gov.Poll("brute-force"); err != nil {
		return nil, err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	takeMode(q)
	compiled, err := compile.Compile(q, db.d.Schema, params)
	if err != nil {
		return nil, err
	}
	t, err := certain.CertainAnswers(compiled.Expr, db.d, certain.BruteForceOptions{Governor: gov})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: compiled.Columns, rows: t, Certain: true}, nil
}

// Explain returns an EXPLAIN ANALYZE-style trace of the query's plan.
func (db *DB) Explain(text string, params Params, opts Options) (string, error) {
	opts.Trace = true
	res, err := db.QueryWithOptions(text, params, opts)
	if err != nil {
		return "", err
	}
	return res.trace + res.Stats.Summary(), nil
}

// ExplainPlan returns the cost-based planner's EXPLAIN for the query
// without executing it: the costed operator tree of exactly what
// execution would run (see pick) and the rewrite rules that fired. The
// plan rests on the query and the schema alone; the counts the tables
// hold only price the tree.
// With Options.NaivePlanner the tree is the unrewritten plan, lowered,
// and no rule fired. The output is deterministic for a fixed database —
// the golden EXPLAIN tests pin it for the paper's appendix queries.
func (db *DB) ExplainPlan(text string, params Params, opts Options) (string, error) {
	return db.ExplainPlanContext(context.Background(), text, params, opts)
}

// ExplainPlanContext is ExplainPlan bounded by ctx: an EXPLAIN issued
// on a request path stops when its request does. A statement that has
// executed prepared is explained from its cached plan, without
// compiling it again; one that has not is compiled for the EXPLAIN
// alone, and not cached.
func (db *DB) ExplainPlanContext(ctx context.Context, text string, params Params, opts Options) (string, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("explain"); err != nil {
		return "", err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	return db.explain(gov, q.SQL(), q, params, opts) // the canonical text, rendered before compiling strips the mode
}

// Stats summarizes one execution.
type Stats = eval.Stats

// Warning is a machine-readable advisory attached to a Result.
type Warning struct {
	// Code identifies the advisory kind; dispatch on it, not Message.
	Code string
	// Message is the human-readable explanation.
	Message string
}

// WarnDegradedToCertain is the Warning.Code attached when a
// potential-answer query exceeded its resource budget and degraded to
// the certain-answer route (see Options.Degrade).
const WarnDegradedToCertain = "degraded-to-certain"

// Result is a query result.
type Result struct {
	// Columns names the output columns.
	Columns []string
	// Certain reports whether the result came from certain-answer
	// evaluation (and is therefore guaranteed free of false positives).
	Certain bool
	// Possible reports whether the result came from potential-answer
	// evaluation (an over-approximation; see QueryPossible).
	Possible bool
	// Degraded reports that the requested evaluation exceeded its
	// resource budget and the result came from the degradation ladder
	// instead (see Options.Degrade); Warnings carries the details.
	Degraded bool
	// Warnings holds machine-readable advisories about this result.
	Warnings []Warning
	// Stats holds execution counters.
	Stats Stats

	rows  *table.Table
	trace string
}

// Len returns the number of rows.
func (r *Result) Len() int { return r.rows.Len() }

// Row returns the i-th row.
func (r *Result) Row(i int) []Value { return r.rows.Row(i) }

// Rows returns all rows; callers must not mutate them.
func (r *Result) Rows() [][]Value { return r.rows.Rows() }

// SortedStrings renders rows deterministically, for display and tests.
func (r *Result) SortedStrings() []string { return r.rows.SortedStrings() }

// Table exposes the underlying table, for the experiment drivers.
func (r *Result) Table() *table.Table { return r.rows }

// Contains reports whether the result contains the given row.
func (r *Result) Contains(vals ...Value) bool { return r.rows.Contains(vals) }

// Sub reports r minus other as row strings, for diff-style displays.
func (r *Result) Sub(other *Result) []string {
	ok := other.rows.KeySet()
	out := table.New(r.rows.Arity())
	for _, row := range r.rows.Rows() {
		if _, in := ok[value.RowKey(row)]; !in {
			out.Append(row)
		}
	}
	return out.SortedStrings()
}

// ErrBruteForceTooLarge re-exports the brute-force budget error.
var ErrBruteForceTooLarge = certain.ErrBruteForceTooLarge
