package certsql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"certsql/internal/algebra"
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
	return p.ExplainContext(context.Background(), params, opts)
}

// ExplainContext is Explain bounded by ctx — the form request paths
// must use, so an abandoned request stops paying for planning.
func (p *Prepared) ExplainContext(ctx context.Context, params Params, opts Options) (string, error) {
	gov := opts.governor(ctx)
	if err := gov.Poll("explain"); err != nil {
		return "", err
	}
	return p.db.explain(gov, p.text, nil, params, opts)
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
	key := p.db.planKey(p.text, params, opts)
	pl, hit, err := p.db.lookupPlan(gov, key, nil, params, opts)
	if err != nil {
		return nil, err
	}
	if !hit {
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

// planKey is the plan-cache key of the canonical statement text under
// params and opts: Execute caches the plans it compiles under it, and
// EXPLAIN reads them.
func (db *DB) planKey(text string, params Params, opts Options) plancache.Key {
	return plancache.Key{
		SQL:            text,
		CatalogVersion: db.catver,
		Params:         fingerprintParams(params),
		Options:        fingerprintPlanOptions(opts),
	}
}

// lookupPlan returns the plan cached under key, or on a miss one
// compiled from q — parsed from key.SQL when q is nil — and not cached;
// hit reports which.
func (db *DB) lookupPlan(gov *guard.Governor, key plancache.Key, q *sql.Query, params Params, opts Options) (pl *plancache.Plan, hit bool, err error) {
	if pl, hit = db.plans.Get(key); hit {
		return pl, true, nil
	}
	if q == nil {
		if q, err = sql.Parse(key.SQL); err != nil {
			return nil, false, err
		}
	}
	pl, err = db.compilePlan(gov, q, params, opts, true)
	return pl, false, err
}

// explain renders the EXPLAIN of the plan Execute would run for the
// canonical statement text: the cached plan when there is one, else one
// compiled from q (or text) that is not cached, so that explaining
// never evicts a plan that executes.
func (db *DB) explain(gov *guard.Governor, text string, q *sql.Query, params Params, opts Options) (string, error) {
	pl, _, err := db.lookupPlan(gov, db.planKey(text, params, opts), q, params, opts)
	if err != nil {
		return "", err
	}
	o := pick(pl, pl.Mode, opts)
	st, err := db.stats.CollectGoverned(gov, db.d)
	if err != nil {
		return "", err
	}
	pr := &plan.Result{Expr: o.Expr, Hints: o.Hints, Fired: o.Fired,
		Explain: plan.Describe(o.Expr, o.Hints, db.d.Schema, st)}
	return pr.ExplainText(), nil
}

// compilePlan performs the cacheable, data-independent part of one
// query: strip the mode, compile, and — for CERTAIN and POSSIBLE —
// check translatability and translate; then plan, once, each expression
// the mode executes, for the route opts selects or, with both, for
// either route. Q⁺ serves the certain route and the possible route's
// degradation ladder, Q⋆ the possible route. Execute caches the result,
// immutable from then on; an ad-hoc query compiles one for a single
// execution. gov carries the planner's fault site.
func (db *DB) compilePlan(gov *guard.Governor, q *sql.Query, params Params, opts Options, both bool) (pl *plancache.Plan, err error) {
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
		pl.OrigOpt, pl.OrigPaper, err = db.lower(gov, pl.Orig, opts, both)
		return pl, err
	}
	if err := certain.CheckTranslatable(pl.Orig); err != nil {
		return nil, err
	}
	tr := opts.translator(db)
	pl.Plus = tr.Plus(pl.Orig)
	if pl.PlusOpt, pl.PlusPaper, err = db.lower(gov, pl.Plus, opts, both); err != nil {
		return nil, err
	}
	if mode == plancache.ModePossible {
		pl.Star = tr.Star(pl.Orig)
		if pl.StarOpt, pl.StarPaper, err = db.lower(gov, pl.Star, opts, both); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// lower plans e for the route opts selects, or with both for either: the
// planner's rewrite of e, lowered (plan.Rewrite), and e as it is,
// lowered (plan.Lower). Each reads only e, the schema and the options
// fingerprintPlanOptions keys.
func (db *DB) lower(gov *guard.Governor, e algebra.Expr, opts Options, both bool) (opt, paper *plancache.Optimized, err error) {
	if both || !opts.NaivePlanner {
		pr, err := plan.Rewrite(e, db.d.Schema, opts.physical(), gov)
		if err != nil {
			return nil, nil, err
		}
		opt = &plancache.Optimized{Expr: pr.Expr, Hints: pr.Hints, Fired: pr.Fired}
	}
	if both || opts.NaivePlanner {
		low := plan.Lower(e, opts.physical())
		paper = &plancache.Optimized{Expr: low.Expr, Hints: low.Hints}
	}
	return opt, paper, nil
}

// pick is the route decision, made once for execution and EXPLAIN
// alike: what a query in the given mode runs — the planner's rewrite
// of the mode's expression, or with Options.NaivePlanner that
// expression as translation produced it, both lowered. NaivePlanner is
// read only here and in compilePlan, so it shares plan-cache entries
// with the default.
func pick(pl *plancache.Plan, mode plancache.Mode, opts Options) *plancache.Optimized {
	var opt, paper *plancache.Optimized
	switch mode {
	case plancache.ModeCertain:
		opt, paper = pl.PlusOpt, pl.PlusPaper
	case plancache.ModePossible:
		opt, paper = pl.StarOpt, pl.StarPaper
	default:
		opt, paper = pl.OrigOpt, pl.OrigPaper
	}
	if opts.NaivePlanner {
		return paper
	}
	return opt
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

// runMode evaluates what pick chooses for mode.
func (db *DB) runMode(gov *guard.Governor, pl *plancache.Plan, mode plancache.Mode, opts Options) (*Result, error) {
	o := pick(pl, mode, opts)
	eo := opts.evalOptions(gov)
	eo.Hints = o.Hints
	ev := eval.New(db.d, eo)
	t, err := ev.Eval(o.Expr)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: pl.Columns, Certain: mode == plancache.ModeCertain, Possible: mode == plancache.ModePossible,
		Stats: ev.Stats(), rows: t, trace: ev.Trace()}, nil
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

// fingerprintPlanOptions encodes the options that change the compiled,
// translated or lowered plan: the lowering reads the semantics and
// whether the view cache is on. Other executor strategy toggles, budgets
// and parallelism are runtime concerns and deliberately excluded —
// varying them reuses the same cached plan.
func fingerprintPlanOptions(o Options) string {
	flags := [...]bool{o.Naive, o.NoOrSplit, o.NoSimplifyNulls, o.NoKeySimplify, o.NoViewCache}
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
