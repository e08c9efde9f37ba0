package main

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"certsql"
	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/sql"
	"certsql/internal/stats"
	"certsql/internal/table"
	"certsql/internal/value"
)

// replica executes a statement stage by stage through the layers'
// exported functions, mirroring the facade's prepare.go
// (ExecuteWithOptionsContext → compilePlan → runPlan) and certsql.go
// (QueryWithOptionsContext → runParsed), with a span around every call
// into a layer. It owns a plan cache and a statistics collector of its
// own, used the way the facade uses a DB's. The traced run checks that
// every answer the replica produces has the digest the facade's answer
// has, which is the proof that the replica measures the real path.
type replica struct {
	tr    *tracer
	plans *plancache.Cache
	stats *stats.Collector

	lookups, hits int // plan-cache traffic since the last resetCounts
}

func newReplica(tr *tracer) *replica {
	return &replica{tr: tr, plans: plancache.New(0), stats: stats.NewCollector()}
}

func (r *replica) resetCounts() { r.lookups, r.hits = 0, 0 }

// execResult is what one replica execution produced.
type execResult struct {
	rows  *table.Table
	cols  []string
	stats eval.Stats
}

func governorFor(o certsql.Options) *guard.Governor {
	return guard.New(context.Background(),
		guard.Limits{MaxRows: o.MaxRows, MaxCostUnits: o.MaxCostUnits, MaxMemBytes: o.MaxMemBytes})
}

func translatorFor(d *table.Database, o certsql.Options) *certain.Translator {
	return &certain.Translator{Sch: d.Schema, Mode: certain.ModeSQL,
		SimplifyNulls: !o.NoSimplifyNulls, SplitOrs: !o.NoOrSplit, KeySimplify: !o.NoKeySimplify}
}

// takeCertain reads and strips the CERTAIN flag of the leading select
// (the compiler does not know it).
func takeCertain(q *sql.Query) (bool, error) {
	body := q.Body
	for {
		switch b := body.(type) {
		case *sql.SelectStmt:
			if b.Possible {
				return false, fmt.Errorf("replica: SELECT POSSIBLE is not part of the benchmark")
			}
			c := b.Certain
			b.Certain = false
			return c, nil
		case sql.SetOp:
			body = b.L
		default:
			return false, nil
		}
	}
}

// collect is the facade's collectStats, spanned as a cold collect when
// some table's content generation is not the one the collector holds.
func (r *replica) collect(gov *guard.Governor, d *table.Database) (st *stats.DBStats, err error) {
	name := "stats.collect.warm"
	cur := r.stats.Current()
	if cur == nil {
		name = "stats.collect.cold"
	} else {
		for _, rel := range d.Schema.Names() {
			rel = strings.ToLower(rel)
			if ts := cur.Tables[rel]; ts == nil || ts.Gen != d.MustTable(rel).Generation() {
				name = "stats.collect.cold"
				break
			}
		}
	}
	r.tr.in(name, func() { st, err = r.stats.CollectGoverned(gov, d) })
	return st, err
}

func (r *replica) optimize(gov *guard.Governor, d *table.Database, e algebra.Expr) (*plan.Result, error) {
	st, err := r.collect(gov, d)
	if err != nil {
		return nil, err
	}
	var pr *plan.Result
	r.tr.in("plan.optimize", func() { pr, err = plan.Optimize(e, d.Schema, st, gov) })
	return pr, err
}

func (r *replica) optimizeFor(gov *guard.Governor, d *table.Database, e algebra.Expr) (*plancache.Optimized, error) {
	pr, err := r.optimize(gov, d, e)
	if err != nil {
		return nil, err
	}
	if !pr.Changed && pr.Hints == nil {
		return nil, nil
	}
	return &plancache.Optimized{Expr: pr.Expr, Shape: eval.ShapeOf(pr.Expr),
		Hints: pr.Hints, Premises: pr.Premises, Explain: pr.ExplainText()}, nil
}

// frontEnd is the part both routes share: parse, mode, compile and, for
// CERTAIN, the translatability check.
func (r *replica) frontEnd(d *table.Database, text string, params certsql.Params) (isCertain bool, c *compile.Compiled, err error) {
	var q *sql.Query
	r.tr.in("sql.parse", func() { q, err = sql.Parse(text) })
	if err != nil {
		return false, nil, err
	}
	if isCertain, err = takeCertain(q); err != nil {
		return false, nil, err
	}
	r.tr.in("compile.compile", func() { c, err = compile.Compile(q, d.Schema, params) })
	if err != nil {
		return false, nil, err
	}
	if isCertain {
		r.tr.in("certain.translate", func() { err = certain.CheckTranslatable(c.Expr) })
	}
	return isCertain, c, err
}

// prepared mirrors Prepared.ExecuteWithOptionsContext for the canonical
// text of a prepared statement against catalog version catver.
func (r *replica) prepared(d *table.Database, catver uint64, text string, params certsql.Params, o certsql.Options) (*execResult, error) {
	gov := governorFor(o)
	key := plancache.Key{SQL: text, CatalogVersion: catver,
		Params: fingerprintParams(params), Options: fingerprintPlanOptions(o)}
	var pl *plancache.Plan
	var hit bool
	r.tr.in("plancache.get", func() { pl, hit = r.plans.Get(key) })
	r.lookups++
	if hit {
		r.hits++
	} else {
		var err error
		if pl, err = r.compilePlan(gov, d, text, params, o); err != nil {
			return nil, err
		}
		r.tr.in("plancache.put", func() { r.plans.Put(key, pl) })
	}
	return r.runPlan(gov, d, pl, o)
}

func (r *replica) compilePlan(gov *guard.Governor, d *table.Database, text string, params certsql.Params, o certsql.Options) (*plancache.Plan, error) {
	isCertain, c, err := r.frontEnd(d, text, params)
	if err != nil {
		return nil, err
	}
	pl := &plancache.Plan{Columns: c.Columns, Orig: c.Expr, OrigShape: eval.ShapeOf(c.Expr)}
	if pl.OrigOpt, err = r.optimizeFor(gov, d, c.Expr); err != nil {
		return nil, err
	}
	if !isCertain {
		pl.Mode = plancache.ModeStandard
		return pl, nil
	}
	pl.Mode = plancache.ModeCertain
	r.tr.in("analyze.plan", func() { pl.AnalyzerSafe = analyze.Plan(c.Expr, d.Schema).Safe })
	r.tr.in("certain.translate", func() { pl.Plus = translatorFor(d, o).Plus(c.Expr) })
	pl.PlusShape = eval.ShapeOf(pl.Plus)
	if pl.PlusOpt, err = r.optimizeFor(gov, d, pl.Plus); err != nil {
		return nil, err
	}
	return pl, nil
}

func (r *replica) runPlan(gov *guard.Governor, d *table.Database, pl *plancache.Plan, o certsql.Options) (*execResult, error) {
	expr, shape, opt := pl.Orig, pl.OrigShape, pl.OrigOpt
	if pl.Mode == plancache.ModeCertain && !(!o.NoAnalyzerFastPath && pl.AnalyzerSafe && d.ConformsNonNull()) {
		expr, shape, opt = pl.Plus, pl.PlusShape, pl.PlusOpt
	}
	var hints *eval.PlanHints
	if opt != nil && !o.NaivePlanner {
		applies := len(opt.Premises) == 0
		if !applies {
			st, err := r.collect(gov, d)
			if err != nil {
				return nil, err
			}
			applies = plan.CheckPremises(opt.Premises, st)
		}
		if applies {
			expr, shape, hints = opt.Expr, opt.Shape, opt.Hints
		}
	}
	return r.evalPlanned(gov, d, expr, shape, hints, pl.Columns, o)
}

// adhoc mirrors DB.QueryWithOptionsContext: no plan cache, the planner
// runs against statistics collected now.
func (r *replica) adhoc(d *table.Database, text string, params certsql.Params, o certsql.Options) (*execResult, error) {
	gov := governorFor(o)
	isCertain, c, err := r.frontEnd(d, text, params)
	if err != nil {
		return nil, err
	}
	expr := c.Expr
	if isCertain {
		safe := false
		if !o.NoAnalyzerFastPath {
			r.tr.in("analyze.plan", func() { safe = analyze.Plan(c.Expr, d.Schema).Safe })
		}
		if !(safe && d.ConformsNonNull()) {
			r.tr.in("certain.translate", func() { expr = translatorFor(d, o).Plus(c.Expr) })
		}
	}
	var hints *eval.PlanHints
	if !o.NaivePlanner {
		pr, err := r.optimize(gov, d, expr)
		if err != nil {
			return nil, err
		}
		expr, hints = pr.Expr, pr.Hints
	}
	return r.evalPlanned(gov, d, expr, nil, hints, c.Columns, o)
}

// evalPlanned mirrors evalExprPlanned: derive the shard plan when
// sharded, then evaluate.
func (r *replica) evalPlanned(gov *guard.Governor, d *table.Database, expr algebra.Expr, shape *eval.Shape, hints *eval.PlanHints, cols []string, o certsql.Options) (*execResult, error) {
	eo := eval.Options{Semantics: value.SQL3VL, Governor: gov, Parallelism: o.Parallelism, Shards: o.Shards,
		NoHashJoin: o.NoHashJoin, NoSubplanCache: o.NoViewCache, NoShortCircuit: o.NoShortCircuit,
		Shape: shape, Hints: hints}
	if o.Shards > 1 {
		st, err := r.collect(gov, d)
		if err != nil {
			return nil, err
		}
		var sr *plan.ShardResult
		r.tr.in("plan.shard", func() { sr = plan.ShardPlan(expr, st, o.Shards) })
		if sr != nil && sr.Hints != nil && plan.CheckPremises(sr.Premises, st) {
			var nh eval.PlanHints
			if eo.Hints != nil {
				nh = *eo.Hints
			}
			nh.Shard = sr.Hints
			eo.Hints = &nh
		}
	}
	var t *table.Table
	var err error
	var st eval.Stats
	r.tr.in("eval.eval", func() {
		ev := eval.New(d, eo)
		t, err = ev.Eval(expr)
		st = ev.Stats()
	})
	if err != nil {
		return nil, err
	}
	return &execResult{rows: t, cols: cols, stats: st}, nil
}

// fingerprintParams and fingerprintPlanOptions repeat the facade's
// plan-cache key rendering, so the replica's cache behaves like a DB's.
func fingerprintParams(params certsql.Params) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%T:%v;", k, params[k], params[k])
	}
	return b.String()
}

func fingerprintPlanOptions(o certsql.Options) string {
	var b strings.Builder
	for _, f := range []bool{o.Naive, o.NoOrSplit, o.NoSimplifyNulls, o.NoKeySimplify} {
		if f {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
