package difftest

import (
	"fmt"
	"math/rand"

	"certsql"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/qgen"
	"certsql/internal/sql"
)

// CheckPlannerSeed checks only the planner invariants for one generated
// case: the cost-based planner and the naive planner must render
// byte-identical results at sequential and parallel settings, on the
// standard, certain and possible routes, the planner's estimates must
// pass the cost audit, and each route's lowered plan must return the
// bytes of the unlowered one (checkLowering). It skips the brute-force
// ground truth, so thousands of cases run in seconds — this is the
// planner-ablation smoke check CI runs, and FuzzPlannerAblation's body.
func CheckPlannerSeed(seed uint64, tuning qgen.Tuning) *Report {
	rng := rand.New(rand.NewSource(int64(seed)))
	db, text := qgen.Case(rng, tuning)
	rep := &Report{Seed: seed, SQL: text, DB: db}

	q, err := sql.Parse(text)
	if err != nil {
		rep.violate("parse", "generated SQL does not parse: %v", err)
		return rep
	}
	compiled, err := compile.Compile(q, db.Schema, nil)
	if err != nil {
		rep.violate("compile", "generated SQL does not compile: %v", err)
		return rep
	}

	fdb := certsql.FromInternal(db)
	translatable := certain.CheckTranslatable(compiled.Expr) == nil
	for _, par := range []int{1, 4} {
		comparePlanner(rep, fdb, text, "standard", par, func(o certsql.Options) (*certsql.Result, error) {
			return fdb.QueryWithOptions(text, nil, o)
		})
		if translatable {
			comparePlanner(rep, fdb, text, "certain", par, func(o certsql.Options) (*certsql.Result, error) {
				return fdb.QueryCertainWithOptions(text, nil, o)
			})
			comparePlanner(rep, fdb, text, "possible", par, func(o certsql.Options) (*certsql.Result, error) {
				return fdb.QueryPossibleWithOptions(text, nil, o)
			})
		}
	}
	for _, rt := range routeExprs(db, compiled.Expr) {
		checkPlanAudit(rep, db, rt.expr)
		checkLowering(rep, db, rt, 4)
	}
	return rep
}

// comparePlanner runs one route with the cost-based planner and the
// naive ablation and demands byte-identical outcomes: same error
// classification, or the exact same result bytes. Budget trips on
// either side skip — the planner legitimately changes what fits in a
// budget.
func comparePlanner(rep *Report, fdb *certsql.DB, text, route string, par int,
	query func(certsql.Options) (*certsql.Result, error)) {
	label := fmt.Sprintf("%s P=%d", route, par)
	opt, oerr := query(certsql.Options{Parallelism: par})
	naive, nerr := query(certsql.Options{Parallelism: par, NaivePlanner: true})
	if budgetErr(oerr) || budgetErr(nerr) {
		rep.skip("planner-ablation " + label + ": budget")
		return
	}
	switch {
	case oerr != nil && nerr != nil:
		return // both routes reject the case the same way
	case oerr != nil:
		rep.violate("planner-ablation", "%s: cost-based planner failed where naive succeeds: %v", label, oerr)
		return
	case nerr != nil:
		rep.violate("planner-ablation", "%s: naive planner failed where cost-based succeeds: %v", label, nerr)
		return
	}
	if got, want := opt.Table().String(), naive.Table().String(); got != want {
		rep.violate("planner-ablation", "%s: planners differ:\ncost-based: %s\nnaive:      %s", label, got, want)
	}
}
