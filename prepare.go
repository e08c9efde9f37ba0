package certsql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/sql"
)

// Prepared is a statement readied for repeated execution. Prepare
// validates and canonicalizes the query text once; each Execute then
// looks the full plan up in the DB's plan cache — on a hit the parse,
// compile, static analysis and Q⁺/Q⋆ translation are all skipped and
// evaluation starts immediately (Stats.PlanCacheHits reports which
// route a result took). Plans are keyed by canonical text, catalog
// version, parameter fingerprint and translation options, so reuse
// can never change an answer: a different parameter binding or a
// republished catalog simply compiles (and caches) a fresh plan.
//
// A Prepared is safe for concurrent use; it is a value object holding
// no per-execution state.
type Prepared struct {
	db   *DB
	text string // canonical rendering (parse → render fixpoint)
	mode plancache.Mode
}

// Prepare parses and canonicalizes a query for repeated execution.
// The evaluation mode is the one written in the text (SELECT, SELECT
// CERTAIN, SELECT POSSIBLE), exactly as with Query.
func (db *DB) Prepare(text string) (*Prepared, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	canonical := q.SQL() // rendered before takeMode strips the keyword
	return &Prepared{db: db, text: canonical, mode: takeMode(q)}, nil
}

// Text returns the canonical statement text.
func (p *Prepared) Text() string { return p.text }

// Mode reports the evaluation mode baked into the statement.
func (p *Prepared) Mode() plancache.Mode { return p.mode }

// Rebind returns the same statement bound to another DB view, without
// re-parsing. The serving layer uses it to point session statements at
// the newest published snapshot: the rebound statement keys into that
// view's plan cache under its catalog version.
func (p *Prepared) Rebind(db *DB) *Prepared {
	return &Prepared{db: db, text: p.text, mode: p.mode}
}

// Explain renders the cost-based planner's EXPLAIN of the statement
// under the given parameter binding. Parameters are folded into the
// compiled algebra, so they are part of what is planned: a statement
// that references parameters cannot be explained without a binding.
func (p *Prepared) Explain(params Params, opts Options) (string, error) {
	return p.db.ExplainPlan(p.text, params, opts)
}

// ExplainContext is Explain bounded by ctx — the form request paths
// must use, so an abandoned request stops paying for planning.
func (p *Prepared) ExplainContext(ctx context.Context, params Params, opts Options) (string, error) {
	return p.db.ExplainPlanContext(ctx, p.text, params, opts)
}

// Execute runs the statement with the given parameters.
func (p *Prepared) Execute(params Params) (*Result, error) {
	return p.ExecuteWithOptionsContext(context.Background(), params, Options{})
}

// ExecuteContext is Execute bounded by ctx.
func (p *Prepared) ExecuteContext(ctx context.Context, params Params) (*Result, error) {
	return p.ExecuteWithOptionsContext(ctx, params, Options{})
}

// ExecuteWithOptions is Execute with explicit evaluation options.
func (p *Prepared) ExecuteWithOptions(params Params, opts Options) (*Result, error) {
	return p.ExecuteWithOptionsContext(context.Background(), params, opts)
}

// ExecuteWithOptionsContext is the fully general prepared entry point:
// explicit options, bounded by ctx.
func (p *Prepared) ExecuteWithOptionsContext(ctx context.Context, params Params, opts Options) (*Result, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("execute"); err != nil {
		return nil, err
	}
	key := plancache.Key{
		SQL:            p.text,
		CatalogVersion: p.db.catver,
		Params:         fingerprintParams(params),
		Options:        fingerprintPlanOptions(opts),
	}
	pl, hit := p.db.plans.Get(key)
	if !hit {
		q, err := sql.Parse(p.text)
		if err != nil {
			return nil, err
		}
		if pl, err = p.db.compilePlan(q, params, opts); err != nil {
			return nil, err
		}
		p.db.plans.Put(key, pl)
	}
	res, err := p.db.runPlan(gov, pl, opts)
	if err != nil {
		return nil, err
	}
	if hit {
		res.Stats.PlanCacheHits = 1
	} else {
		res.Stats.PlanCacheMisses = 1
	}
	return res, nil
}

// compilePlan performs the cacheable, data-independent part of one
// query: strip the mode, compile, and — for CERTAIN and POSSIBLE —
// check translatability, run the static analysis and translate. Q⁺
// serves the certain route and the possible route's degradation
// ladder, Q⋆ the possible route. The analyzer verdict is kept; whether
// the fast path actually fires is re-decided per execution (see pick),
// because data may change between executions of one cached plan.
// Execute caches the result; an ad-hoc query compiles one for a single
// execution. The planner's variants are built later, by the executions
// that read them (see variant).
func (db *DB) compilePlan(q *sql.Query, params Params, opts Options) (pl *plancache.Plan, err error) {
	defer func() {
		if v := recover(); v != nil {
			pl, err = nil, guard.NewInternalError("certsql/compile-plan", v)
		}
	}()
	mode := takeMode(q)
	compiled, err := compile.Compile(q, db.d.Schema, params)
	if err != nil {
		return nil, err
	}
	pl = &plancache.Plan{Mode: mode, Columns: compiled.Columns, Orig: compiled.Expr}
	if mode == plancache.ModeStandard {
		return pl, nil
	}
	if err := certain.CheckTranslatable(pl.Orig); err != nil {
		return nil, err
	}
	pl.AnalyzerSafe = analyze.Plan(pl.Orig, db.d.Schema).Safe
	tr := opts.translator(db)
	pl.Plus = tr.Plus(pl.Orig)
	if mode == plancache.ModePossible {
		pl.Star = tr.Star(pl.Orig)
	}
	return pl, nil
}

// pick is the route decision, made once for execution and EXPLAIN
// alike: the expression a query in the given mode runs, the plan's slot
// for its optimized variant, and whether that is the analyzer fast path.
func (db *DB) pick(pl *plancache.Plan, mode plancache.Mode, opts Options) (algebra.Expr, **plancache.Optimized, bool) {
	switch mode {
	case plancache.ModeCertain:
		// Fast path: when the static analyzer proves the query safe —
		// plain evaluation returns exactly the certain answers on every
		// database conforming to the schema — skip Q⁺ and run the query
		// as-is. The verdict leans on the schema's NOT NULL declarations,
		// which Insert enforces only on request, so the database's O(1)
		// conformance counter (maintained incrementally by Insert and
		// ReplaceRow) gates it; a non-conforming database still gets
		// correct certain answers via the translation.
		//
		// Identity is NOT a valid potential-answer translation Q⋆ (it
		// under-approximates), so the possible route never comes here.
		if !opts.NoAnalyzerFastPath && pl.AnalyzerSafe && db.d.ConformsNonNull() {
			return pl.Orig, &pl.OrigOpt, true
		}
		return pl.Plus, &pl.PlusOpt, false
	case plancache.ModePossible:
		return pl.Star, &pl.StarOpt, false
	default:
		return pl.Orig, &pl.OrigOpt, false
	}
}

// variant returns the plan's optimized variant of e, building it into
// slot on first use, or nil when a premise it relies on no longer
// holds. A variant this call built rests on statistics collected
// moments ago, and one without premises needs none, so neither is
// checked; otherwise statistics are re-collected, which the generation
// cache makes O(1) on unchanged data.
func (db *DB) variant(gov *guard.Governor, pl *plancache.Plan, slot **plancache.Optimized, e algebra.Expr) (*plancache.Optimized, error) {
	var built *plancache.Optimized
	o, err := pl.Variant(slot, func() (*plancache.Optimized, error) {
		st, err := db.collectStats(gov)
		if err != nil {
			return nil, err
		}
		pr, err := plan.Optimize(e, db.d.Schema, st, gov)
		if err != nil {
			return nil, err
		}
		built = &plancache.Optimized{Expr: pr.Expr, Hints: pr.Hints, Premises: pr.Premises}
		return built, nil
	})
	if err != nil || o == built || len(o.Premises) == 0 {
		return o, err
	}
	st, err := db.collectStats(gov)
	if err != nil {
		return nil, err
	}
	if !plan.CheckPremises(o.Premises, st) {
		return nil, nil
	}
	return o, nil
}

// runPlan executes a plan in its mode. This is the one route every
// query takes — prepared executions with a cached plan, ad-hoc queries
// with one compiled for them — including the possible route's opt-in
// degradation ladder.
func (db *DB) runPlan(gov *guard.Governor, pl *plancache.Plan, opts Options) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, guard.NewInternalError("certsql/execute", v)
		}
	}()
	res, err = db.runMode(gov, pl, pl.Mode, opts)
	// Degradation ladder: when Q⋆ trips a resource budget — never on
	// cancellation or deadline expiry, which don't match ErrBudget —
	// fall back to the certain route under a fresh governor with the
	// same limits and context. Certain answers under-approximate where
	// potential answers over-approximate, so every returned row is
	// still a guaranteed answer.
	if err == nil || pl.Mode != plancache.ModePossible || !opts.Degrade || !errors.Is(err, guard.ErrBudget) {
		return res, err
	}
	res, derr := db.runMode(gov.Fresh(), pl, plancache.ModeCertain, opts)
	if derr != nil {
		return nil, derr
	}
	res.Degraded = true
	res.Warnings = append(res.Warnings, Warning{
		Code: WarnDegradedToCertain,
		Message: fmt.Sprintf("potential-answer translation exceeded its resource budget (%v); "+
			"returning certain answers instead — a sound under-approximation", err),
	})
	return res, nil
}

// runMode evaluates the expression pick chooses for mode: its optimized
// variant when the planner is on and the variant's premises hold, the
// baseline otherwise. Options.NaivePlanner is an executor-side choice
// read only here, so it shares plan-cache entries with the default.
// Shards needs no planning of its own — it routes probe rows, and every
// operator builds the same structures at any shard count — so the plan
// cache stays shard-agnostic (Shards is deliberately absent from its
// fingerprint).
func (db *DB) runMode(gov *guard.Governor, pl *plancache.Plan, mode plancache.Mode, opts Options) (*Result, error) {
	expr, slot, fastPath := db.pick(pl, mode, opts)
	eo := opts.evalOptions(gov)
	if !opts.NaivePlanner {
		o, err := db.variant(gov, pl, slot, expr)
		if err != nil {
			return nil, err
		}
		if o != nil {
			expr, eo.Hints = o.Expr, o.Hints
		}
	}
	ev := eval.New(db.d, eo)
	t, err := ev.Eval(expr)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: pl.Columns, Certain: mode == plancache.ModeCertain, Possible: mode == plancache.ModePossible,
		Stats: ev.Stats(), rows: t, trace: ev.Trace()}
	if fastPath {
		res.Stats.FastPathHits = 1
	}
	return res, nil
}

// fingerprintParams renders a parameter binding deterministically.
// Parameters are folded into the compiled algebra (IN-lists expand,
// constants propagate), so they are part of the plan identity.
func fingerprintParams(params Params) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := params[k]
		fmt.Fprintf(&b, "%s=%T:%v;", k, v, v)
	}
	return b.String()
}

// fingerprintPlanOptions encodes the options that change the compiled
// or translated plan. Executor strategy toggles, budgets, parallelism
// and the analyzer fast path are runtime concerns and deliberately
// excluded — varying them reuses the same cached plan.
func fingerprintPlanOptions(o Options) string {
	flags := [...]bool{o.Naive, o.NoOrSplit, o.NoSimplifyNulls, o.NoKeySimplify}
	var b [len(flags)]byte
	for i, f := range flags {
		if f {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b[:])
}

// WithMode returns the canonical text of a query with its evaluation
// mode forced: "certain" and "possible" rewrite the leading select's
// keyword, "" (or "standard") strips it. The serving layer uses this
// to implement mode overrides without a second parser.
func WithMode(text, mode string) (string, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return "", err
	}
	sel := leadSelect(q.Body)
	if sel == nil {
		return "", fmt.Errorf("certsql: no select statement to set mode on")
	}
	switch mode {
	case "certain":
		sel.Certain, sel.Possible = true, false
	case "possible":
		sel.Certain, sel.Possible = false, true
	case "", "standard":
		sel.Certain, sel.Possible = false, false
	default:
		return "", fmt.Errorf("certsql: unknown mode %q (want certain, possible, or standard)", mode)
	}
	return q.SQL(), nil
}
