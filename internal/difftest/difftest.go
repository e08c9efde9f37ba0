// Package difftest is the differential-testing oracle for the whole
// certain-answer pipeline. It runs one (database, SQL text) case through
// the full certsql facade — parser, compiler, Q⁺/Q⋆ translations,
// SQL-to-SQL rewriting and the executor — and cross-checks the results
// against each other and against the brute-force ground truth:
//
//   - round-trip: parsing the rendered SQL reproduces the same text;
//   - soundness: Q⁺(D) ⊆ cert(Q, D), computed by brute-force valuation
//     enumeration on the definitional evaluator (Theorem 1), in both
//     SQL-3VL and naive modes;
//   - representation: Q(v(D)) ⊆ v(Q⋆(D)) for every valuation v in the
//     brute-force pool (Lemma 2);
//   - optimization equivalence: the OR-split, null-simplification and
//     key-simplification passes leave the Q⁺ result unchanged;
//   - rewrite re-execution: when the database has no repeated marks,
//     running the SQL text of Q⁺ produced by rewrite.ToSQL gives the
//     same result as evaluating the translation directly;
//   - executor agreement: Parallelism=1 and Parallelism=N render
//     byte-identical results, and the hash-join / subplan-cache /
//     short-circuit ablations give the same result sets;
//   - reference: the executor's result for Q — and, when translatable,
//     for Q⁺ and Q⋆ — equals the definitional evaluator's (internal/refeval)
//     as a multiset, under SQL-3VL and naive semantics alike;
//   - planner ablation: the cost-based planner and the paper-faithful
//     naive planner render byte-identical results on the standard and
//     certain routes and share plan-cache entries on the prepared path;
//   - cost audit: the planner's estimates are internally consistent and
//     its rewrites invent no predicate atoms;
//   - lowering: the plan the physical lowering gives for each semantics
//     (plan.Lower: guards dropped, build sides split) returns the bytes
//     of the unlowered expression, which the executor runs as written.
//
// Cases come from internal/qgen and are pure functions of a seed, so a
// failure is reproduced by its seed alone; Minimize shrinks a failing
// case and GoRepro prints it as a ready-to-paste Go test.
package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"certsql"
	"certsql/internal/algebra"
	"certsql/internal/analyze"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/plan"
	"certsql/internal/qgen"
	"certsql/internal/refeval"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Options configure one oracle run.
type Options struct {
	// Tuning sets the generator knobs for seed-driven cases (CheckSeed);
	// the zero value uses qgen's defaults.
	Tuning qgen.Tuning
	// BruteForce bounds the ground-truth computation; cases beyond the
	// budget skip the brute-force invariants instead of failing.
	BruteForce certain.BruteForceOptions
	// Parallelism is the worker count for the P=1 vs P=N executor
	// comparison (default 4).
	Parallelism int
	// RequireValid treats SQL that does not parse or compile as a
	// violation instead of a skip. CheckSeed sets it: generated SQL must
	// be inside the supported fragment, arbitrary fuzz strings need not.
	RequireValid bool
}

func (o Options) parallelism() int {
	if o.Parallelism <= 0 {
		return 4
	}
	return o.Parallelism
}

// Violation is one broken invariant.
type Violation struct {
	// Invariant is the short machine-readable name ("plus-soundness",
	// "parallel-agreement", …).
	Invariant string
	// Detail is the human-readable evidence.
	Detail string
}

// Report is the outcome of checking one case.
type Report struct {
	// Seed is the generator seed, when the case came from CheckSeed.
	Seed uint64
	// SQL is the query text of the case.
	SQL string
	// DB is the database of the case.
	DB *table.Database
	// Violations lists every broken invariant (empty = case passed).
	Violations []Violation
	// Skips names invariants not checked on this case and why
	// ("brute-force: budget", "certain: not translatable", …).
	Skips []string
	// Translatable reports whether the query admits the certain-answer
	// translation (aggregate queries do not — Section 8 of the paper).
	Translatable bool
	// BruteForced reports whether the ground truth fit in the budget.
	BruteForced bool
	// RecallExact reports Q⁺(D) = cert(Q, D) on this case (the paper
	// measures 100% recall; the translation only guarantees ⊆).
	RecallExact bool
	// AnalyzerSafe reports the static analyzer's verdict on the plain
	// plan: safe means plain evaluation provably returns exactly the
	// certain answers (checked against the brute force below).
	AnalyzerSafe bool
	// Reference lists the route/semantics pairs ("Q/sql3vl", "Q⁺/naive",
	// …) on which the reference invariant was actually compared — not
	// skipped — on this case.
	Reference []string
	// Lowered lists the route/semantics pairs on which the lowering
	// invariant compared a plan the lowering changed.
	Lowered []string
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Has reports whether the named invariant broke.
func (r *Report) Has(invariant string) bool {
	for _, v := range r.Violations {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func (r *Report) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

func (r *Report) skip(reason string) {
	r.Skips = append(r.Skips, reason)
}

// Summary renders the report for logs and t.Fatal messages.
func (r *Report) Summary() string {
	var b strings.Builder
	if r.Failed() {
		fmt.Fprintf(&b, "difftest: %d invariant(s) violated (seed %d)\n", len(r.Violations), r.Seed)
	} else {
		fmt.Fprintf(&b, "difftest: ok (seed %d)\n", r.Seed)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  [%s] %s\n", v.Invariant, v.Detail)
	}
	fmt.Fprintf(&b, "  query: %s\n", r.SQL)
	fmt.Fprintf(&b, "  analyzer: safe=%v\n", r.AnalyzerSafe)
	if r.DB != nil {
		for _, name := range r.DB.Schema.Names() {
			rel, _ := r.DB.Schema.Relation(name)
			fmt.Fprintf(&b, "  %s: %s\n", rel, strings.Join(r.DB.MustTable(name).SortedStrings(), " "))
		}
	}
	return b.String()
}

// CheckSeed generates the case for one seed and checks it.
func CheckSeed(seed uint64, opts Options) *Report {
	rng := rand.New(rand.NewSource(int64(seed)))
	db, text := qgen.Case(rng, opts.Tuning)
	opts.RequireValid = true
	rep := Check(db, text, opts)
	rep.Seed = seed
	return rep
}

// budgetErr reports errors that mean "case too expensive" (or, for the
// ground truth, a LIMIT the algebra gives no meaning to), which skip an
// invariant rather than violate it.
func budgetErr(err error) bool {
	return errors.Is(err, eval.ErrTooLarge) || errors.Is(err, certain.ErrBruteForceTooLarge) ||
		errors.Is(err, refeval.ErrLimit)
}

// Check runs every oracle invariant on one case.
func Check(db *table.Database, text string, opts Options) *Report {
	rep := &Report{SQL: text, DB: db}

	q, err := sql.Parse(text)
	if err != nil {
		if opts.RequireValid {
			rep.violate("parse", "generated SQL does not parse: %v", err)
		} else {
			rep.skip("parse: " + err.Error())
		}
		return rep
	}

	// Round-trip stability: render → parse → render is a fixpoint.
	rendered := q.SQL()
	q2, err := sql.Parse(rendered)
	switch {
	case err != nil:
		rep.violate("roundtrip", "rendered SQL does not reparse: %v\nrendered: %s", err, rendered)
	case q2.SQL() != rendered:
		rep.violate("roundtrip", "render/parse not a fixpoint:\nfirst:  %s\nsecond: %s", rendered, q2.SQL())
	}

	compiled, err := compile.Compile(q2, db.Schema, nil)
	if err != nil {
		if opts.RequireValid {
			rep.violate("compile", "generated SQL does not compile: %v", err)
		} else {
			rep.skip("compile: " + err.Error())
		}
		return rep
	}
	expr := compiled.Expr
	rep.AnalyzerSafe = analyze.Plan(expr, db.Schema).Safe

	fdb := certsql.FromInternal(db)

	// Standard evaluation, sequential baseline.
	base, err := fdb.QueryWithOptions(text, nil, certsql.Options{Parallelism: 1})
	if err != nil {
		if budgetErr(err) {
			rep.skip("eval: " + err.Error())
			return rep
		}
		rep.violate("eval", "standard evaluation failed: %v", err)
		return rep
	}

	// Executor agreement: P=N must be byte-identical, strategy ablations
	// must give the same result set (row order may differ).
	if resN, err := fdb.QueryWithOptions(text, nil, certsql.Options{Parallelism: opts.parallelism()}); err != nil {
		rep.violate("parallel-agreement", "P=%d evaluation failed: %v", opts.parallelism(), err)
	} else if got, want := resN.Table().String(), base.Table().String(); got != want {
		rep.violate("parallel-agreement", "P=1 and P=%d differ:\nP=1: %s\nP=N: %s", opts.parallelism(), want, got)
	}
	// Planner ablation: the cost-based planner must be invisible in the
	// result bytes — same rows, same order, same duplicates, same mark
	// minting — so the paper-faithful naive plan and the optimized plan
	// are compared raw, not as sets. A budget trip on either side only
	// skips (the planner legitimately changes what fits in a budget).
	if resP, err := fdb.QueryWithOptions(text, nil, certsql.Options{NaivePlanner: true, Parallelism: 1}); err != nil {
		if budgetErr(err) {
			rep.skip("planner-ablation: " + err.Error())
		} else {
			rep.violate("planner-ablation", "naive-planner evaluation failed: %v", err)
		}
	} else if got, want := resP.Table().String(), base.Table().String(); got != want {
		rep.violate("planner-ablation", "cost-based and naive planner differ:\ncost-based: %s\nnaive:      %s", want, got)
	}

	// The compiled plan and, when translatable, its Q⁺ and Q⋆
	// translations, each checked directly at the algebra level. Cost
	// audit: the planner's estimates satisfy their internal consistency
	// invariants and its rewrites invented no predicates. Reference: the
	// executor agrees with the definitional evaluator.
	for _, rt := range routeExprs(db, expr) {
		checkPlanAudit(rep, db, rt.expr)
		rep.Reference = append(rep.Reference, checkReference(db, rt.name, rt.expr, rep.violate, rep.skip)...)
		checkLowering(rep, db, rt, opts.parallelism())
	}

	for name, o := range map[string]certsql.Options{
		"no-hash-join":     {NoHashJoin: true, Parallelism: 1},
		"no-view-cache":    {NoViewCache: true, Parallelism: 1},
		"no-short-circuit": {NoShortCircuit: true, Parallelism: 1},
	} {
		res, err := fdb.QueryWithOptions(text, nil, o)
		if err != nil {
			rep.violate("executor-ablation", "%s evaluation failed: %v", name, err)
			continue
		}
		if !sameSet(res.Table(), base.Table()) {
			rep.violate("executor-ablation", "%s changes the result:\nbase:     %v\nablation: %v",
				name, base.SortedStrings(), res.SortedStrings())
		}
	}

	if err := certain.CheckTranslatable(expr); err != nil {
		rep.skip("certain: " + err.Error())
		return rep
	}
	rep.Translatable = true

	// The certain-answer translation and its ablations.
	plus, err := fdb.QueryCertain(text, nil)
	if err != nil {
		if budgetErr(err) {
			rep.skip("plus: " + err.Error())
			return rep
		}
		rep.violate("plus-eval", "Q⁺ evaluation failed: %v", err)
		return rep
	}
	for name, o := range map[string]certsql.Options{
		"no-or-split":       {NoOrSplit: true},
		"no-simplify-nulls": {NoSimplifyNulls: true},
		"no-key-simplify":   {NoKeySimplify: true},
		"all-off":           {NoOrSplit: true, NoSimplifyNulls: true, NoKeySimplify: true},
	} {
		res, err := queryCertainWithOptions(fdb, text, o)
		if err != nil {
			if budgetErr(err) {
				rep.skip("translation-ablation " + name + ": " + err.Error())
				continue
			}
			rep.violate("translation-ablation", "%s Q⁺ evaluation failed: %v", name, err)
			continue
		}
		if !sameSet(res.Table(), plus.Table()) {
			rep.violate("translation-ablation", "%s changes Q⁺:\nfull: %v\n%s: %v",
				name, plus.SortedStrings(), name, res.SortedStrings())
		}
	}
	// Planner ablation on the certain route: byte-identical Q⁺ bytes.
	if resP, err := queryCertainWithOptions(fdb, text, certsql.Options{NaivePlanner: true}); err != nil {
		if budgetErr(err) {
			rep.skip("planner-ablation plus: " + err.Error())
		} else {
			rep.violate("planner-ablation", "naive-planner Q⁺ evaluation failed: %v", err)
		}
	} else if got, want := resP.Table().String(), plus.Table().String(); got != want {
		rep.violate("planner-ablation", "cost-based and naive planner differ on Q⁺:\ncost-based: %s\nnaive:      %s", want, got)
	}

	// Prepared-statement reuse: Prepare on the certain-forced text and
	// Execute twice on each route — the first execution compiles exactly
	// one plan, the second must serve it from the plan cache, and it must
	// agree byte-for-byte with the ad-hoc Q⁺ evaluation. The serving layer
	// leans on this invariant: every certsqld query (ad-hoc included)
	// runs through the prepared path.
	checkPreparedReuse(rep, fdb, text, plus)

	naive, err := queryCertainWithOptions(fdb, text, certsql.Options{Naive: true})
	if err != nil && !budgetErr(err) {
		rep.violate("plus-eval", "naive-mode Q⁺ evaluation failed: %v", err)
		naive = nil
	}

	// Rewrite re-execution: exact only without repeated marks, because
	// SQL's Codd nulls cannot express mark equality (Section 7).
	if !hasRepeatedMarks(db) {
		checkRewrite(rep, fdb, text, plus)
	} else {
		rep.skip("rewrite: repeated marks")
	}

	// The brute-force invariants only apply when every scalar aggregate
	// subquery is rigid: the translation treats scalars as black-box
	// constants (paper §7), which forfeits the certain-answer guarantee
	// over valuation-dependent aggregate input.
	if !certain.RigidScalars(expr, db.Schema) {
		rep.skip("brute-force: non-rigid scalar aggregate subquery (black-box constant, paper §7)")
		return rep
	}

	// Ground truth: brute-force certain answers.
	cert, err := certain.CertainAnswers(expr, db, opts.BruteForce)
	if err != nil {
		if budgetErr(err) {
			rep.skip("brute-force: " + err.Error())
			return rep
		}
		rep.violate("brute-force", "ground truth failed: %v", err)
		return rep
	}
	rep.BruteForced = true

	// Analyzer soundness: a safe verdict promises that plain evaluation —
	// under SQL and naive semantics alike — returns exactly the certain
	// answers (the database enforces the schema's NOT NULL
	// declarations the verdict leans on). Evaluate the compiled plan
	// directly (the case text may itself say SELECT CERTAIN, which the
	// facade would translate again).
	if rep.AnalyzerSafe {
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			res, err := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1}).Eval(expr)
			if err != nil {
				if budgetErr(err) {
					rep.skip(fmt.Sprintf("analyzer-soundness (%v): %v", sem, err))
					continue
				}
				rep.violate("analyzer-soundness", "plain evaluation (%v) of a safe plan failed: %v", sem, err)
				continue
			}
			if !sameSet(res, cert) {
				rep.violate("analyzer-soundness",
					"analyzer calls the plan safe, but plain evaluation (%v) ≠ cert:\nplain: %v\ncert:  %v",
					sem, res.SortedStrings(), cert.SortedStrings())
			}
		}
	}

	// Soundness (Theorem 1): Q⁺(D) ⊆ cert(Q, D), in both modes.
	if row, ok := firstExtra(plus.Table(), cert); !ok {
		rep.violate("plus-soundness", "Q⁺ returned a non-certain answer %s\nQ⁺:   %v\ncert: %v",
			value.RowKey(row), plus.SortedStrings(), cert.SortedStrings())
	}
	if naive != nil {
		if row, ok := firstExtra(naive.Table(), cert); !ok {
			rep.violate("plus-soundness", "naive-mode Q⁺ returned a non-certain answer %s", value.RowKey(row))
		}
	}
	rep.RecallExact = len(plus.Table().KeySet()) == len(cert.KeySet()) && !rep.Has("plus-soundness")

	// Representation (Lemma 2): Q(v(D)) ⊆ v(Q⋆(D)) for every valuation.
	star, err := fdb.QueryPossible(text, nil)
	if err != nil {
		if budgetErr(err) {
			rep.skip("star: " + err.Error())
			return rep
		}
		rep.violate("star-eval", "Q⋆ evaluation failed: %v", err)
		return rep
	}
	ok, missing, witness, err := certain.RepresentsPotentialAnswers(expr, db, star.Table(), opts.BruteForce)
	switch {
	case err != nil && budgetErr(err):
		rep.skip("star: " + err.Error())
	case err != nil:
		rep.violate("star-representation", "representation check failed: %v", err)
	case !ok:
		rep.violate("star-representation",
			"Q⋆ misses answer %s under valuation %v\nQ⋆: %v", value.RowKey(missing), witness, star.SortedStrings())
	}
	return rep
}

// checkPreparedReuse verifies the plan-cache contract: a prepared
// certain-answer query compiles once per route, hits the cache on
// re-execution, and the cached plan's answer is byte-identical to
// ad-hoc evaluation.
func checkPreparedReuse(rep *Report, fdb *certsql.DB, text string, plus *certsql.Result) {
	certain, err := certsql.WithMode(text, "certain")
	if err != nil {
		return // the roundtrip invariant already reports parse failures
	}
	prep, err := fdb.Prepare(certain)
	if err != nil {
		rep.violate("prepared-reuse", "Prepare failed on certain-forced text: %v", err)
		return
	}
	exec := func(which string, opts certsql.Options) *certsql.Result {
		res, err := prep.ExecuteWithOptions(nil, opts)
		if err != nil {
			if budgetErr(err) {
				rep.skip("prepared-reuse: " + err.Error())
				return nil
			}
			rep.violate("prepared-reuse", "%s Execute failed: %v", which, err)
			return nil
		}
		return res
	}
	// The paper-faithful route (NaivePlanner) is part of the plan key:
	// it compiles its own plan once, then hits it like the default.
	for _, route := range []struct {
		name string
		opts certsql.Options
	}{{"default", certsql.Options{}}, {"naive-planner", certsql.Options{NaivePlanner: true}}} {
		r1 := exec(route.name+" first", route.opts)
		if r1 == nil {
			return
		}
		r2 := exec(route.name+" second", route.opts)
		if r2 == nil {
			return
		}
		if r1.Stats.PlanCacheMisses != 1 || r1.Stats.PlanCacheHits != 0 {
			rep.violate("prepared-reuse", "%s: first execution should compile exactly one plan, stats %+v", route.name, r1.Stats)
		}
		if r2.Stats.PlanCacheHits != 1 || r2.Stats.PlanCacheMisses != 0 {
			rep.violate("prepared-reuse", "%s: second execution should reuse the cached plan, stats %+v", route.name, r2.Stats)
		}
		if got, want := r2.Table().String(), plus.Table().String(); got != want {
			rep.violate("prepared-reuse", "%s: cached-plan result differs from ad-hoc Q⁺:\nad-hoc: %s\ncached: %s", route.name, want, got)
		}
	}
}

// queryCertainWithOptions is QueryCertain with explicit options (the
// facade couples the two only through the query text).
func queryCertainWithOptions(fdb *certsql.DB, text string, o certsql.Options) (*certsql.Result, error) {
	certain, err := certsql.WithMode(text, "certain")
	if err != nil {
		return nil, err
	}
	return fdb.QueryWithOptions(certain, nil, o)
}

// routeExpr is one algebra-level route of a case: the compiled query
// or one of its translations.
type routeExpr struct {
	name string
	expr algebra.Expr
}

// routeExprs returns the compiled expression and, when it is
// translatable, its Q⁺ and Q⋆ translations under the default passes.
func routeExprs(db *table.Database, expr algebra.Expr) []routeExpr {
	routes := []routeExpr{{"Q", expr}}
	if certain.CheckTranslatable(expr) == nil {
		tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeSQL,
			SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
		routes = append(routes, routeExpr{"Q⁺", tr.Plus(expr)}, routeExpr{"Q⋆", tr.Star(expr)})
	}
	return routes
}

// checkPlanAudit runs the cost-based planner directly over e and checks
// the audit invariants: the EXPLAIN tree's estimates, priced with db's
// counts, are internally consistent (non-negative, finite, monotone over
// children, covering output cardinality), and the rewritten plan's
// conditions contain no atom absent from the input plan. That the plan
// does not depend on the data needs no check: Rewrite is not handed any.
func checkPlanAudit(rep *Report, db *table.Database, e algebra.Expr) {
	pr, err := plan.Rewrite(e, db.Schema, plan.Physical{}, nil)
	if err != nil {
		rep.violate("cost-audit", "planner failed: %v", err)
		return
	}
	tree := plan.Describe(pr.Expr, pr.Hints, db.Schema, db)
	if err := plan.AuditCost(tree); err != nil {
		rep.violate("cost-audit", "%v\nplan:\n%s", err, tree.Render())
	}
	if err := plan.AuditConds(e, pr.Expr); err != nil {
		rep.violate("cost-audit", "%v", err)
	}
}

// checkLowering is the lowering invariant on one route: under each
// semantics, the plan lowered for it returns, hints and all, the bytes
// of the unlowered expression at Parallelism 1 and par. Once the
// executor drops and splits nothing itself, the unlowered run is an
// independent partner of the lowered one. A budget trip on either side
// skips.
func checkLowering(rep *Report, db *table.Database, rt routeExpr, par int) {
	for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
		label := rt.name + "/" + sem.String()
		low := plan.Lower(rt.expr, plan.Physical{Semantics: sem})
		compared := true
		for _, p := range []int{1, par} {
			want, werr := eval.New(db, eval.Options{Semantics: sem, Parallelism: p}).Eval(rt.expr)
			got, gerr := eval.New(db, eval.Options{Semantics: sem, Parallelism: p, Hints: low.Hints}).Eval(low.Expr)
			switch {
			case budgetErr(werr) || budgetErr(gerr):
				rep.skip("lowering " + label + ": budget")
				compared = false
			case (werr == nil) != (gerr == nil):
				rep.violate("lowering", "%s P=%d: unlowered error %v, lowered error %v", label, p, werr, gerr)
			case werr == nil && got.String() != want.String():
				rep.violate("lowering", "%s P=%d: the lowered plan changes the bytes:\nunlowered: %s\nlowered:   %s\nplan: %s",
					label, p, want, got, low.Expr.Key())
			}
		}
		if compared && low.Changed {
			rep.Lowered = append(rep.Lowered, label)
		}
	}
}

// checkReference is the reference invariant on one route: under each
// semantics, the executor's result for e must equal the definitional
// evaluator's as a multiset (see refeval.SameMultiset). It returns the
// route/semantics labels actually compared. A case beyond the reference
// evaluator's work cap or the executor's budget, and a plan with a
// LIMIT, are skips. The chaos sweep runs it on its clean baseline too,
// hence the callbacks.
func checkReference(db *table.Database, route string, e algebra.Expr,
	violate func(invariant, format string, args ...any), skip func(reason string)) (ran []string) {
	for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
		label := route + "/" + sem.String()
		want, err := refeval.Rows(db, sem, e)
		if errors.Is(err, refeval.ErrWork) || errors.Is(err, refeval.ErrLimit) {
			skip("reference " + label + ": " + err.Error())
			continue
		}
		if err != nil {
			violate("reference", "%s: reference evaluator failed: %v", label, err)
			continue
		}
		ev := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1})
		got, err := ev.Eval(e)
		if err != nil {
			if budgetErr(err) {
				skip("reference " + label + ": " + err.Error())
			} else {
				violate("reference", "%s: executor failed where the reference evaluator succeeds: %v", label, err)
			}
			continue
		}
		// A plan whose Views rule out a hit runs without the view cache
		// on the default route, so the analysis must never miss a hit
		// the cache (on here: the evaluator has no Views) would serve.
		if hits := ev.Stats().CacheHits; hits > 0 && eval.PlanViews(e, new(eval.JoinBlocks)).NoHits {
			violate("view-hits", "%s: %d view-cache hits on a plan PlanViews rules them out for: %s", label, hits, e.Key())
		}
		if !refeval.SameMultiset(got.Rows(), want) {
			violate("reference", "%s: executor and definitional evaluator differ:\nexecutor:  %v\nreference: %v\nplan: %s",
				label, got.SortedStrings(), table.FromRows(e.Arity(), want).SortedStrings(), e.Key())
			continue
		}
		ran = append(ran, label)
	}
	return ran
}

func checkRewrite(rep *Report, fdb *certsql.DB, text string, plus *certsql.Result) {
	rewritten, err := fdb.Rewrite(text, nil)
	if err != nil {
		// Some translated shapes have no SQL rendering; that limits the
		// rewriter, not the pipeline.
		rep.skip("rewrite: " + err.Error())
		return
	}
	res, err := fdb.QueryWithOptions(rewritten, nil, certsql.Options{Parallelism: 1})
	if err != nil {
		// The rendered SQL targets conventional DBMSs and may fall
		// outside this engine's accepted fragment.
		rep.skip("rewrite-eval: " + err.Error())
		return
	}
	if !sameSet(res.Table(), plus.Table()) {
		rep.violate("rewrite-agreement", "re-executing rewrite.ToSQL(Q⁺) differs from Q⁺:\ndirect:  %v\nrewrite: %v\nsql: %s",
			plus.SortedStrings(), res.SortedStrings(), rewritten)
	}
}

// sameSet compares two tables as sets of rows.
func sameSet(a, b *table.Table) bool {
	ka, kb := a.KeySet(), b.KeySet()
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if _, ok := kb[k]; !ok {
			return false
		}
	}
	return true
}

// firstExtra returns a row of a that is not in b (ok=false), or ok=true
// when a ⊆ b.
func firstExtra(a, b *table.Table) (table.Row, bool) {
	keys := b.KeySet()
	for _, row := range a.Rows() {
		if _, in := keys[value.RowKey(row)]; !in {
			return row, false
		}
	}
	return nil, true
}

// hasRepeatedMarks reports whether any null mark occurs twice in the
// database (a non-Codd null).
func hasRepeatedMarks(db *table.Database) bool {
	seen := map[int64]bool{}
	for _, name := range db.Schema.Names() {
		for _, row := range db.MustTable(name).Rows() {
			for _, v := range row {
				if !v.IsNull() {
					continue
				}
				if seen[v.NullID()] {
					return true
				}
				seen[v.NullID()] = true
			}
		}
	}
	return false
}
