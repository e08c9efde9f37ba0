package certsql

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/tpch"
)

// routeCfg is a small Figure 4 instance with nulls in every nullable
// column the appendix queries read.
var routeCfg = tpch.Config{ScaleFactor: 0.002, Seed: 3, NullRate: 0.05}

// routeCase is one appendix query in one evaluation mode, under one
// translation option set.
type routeCase struct {
	name   string
	text   string
	params Params
	opts   Options
}

// routeCases lists Q1–Q4 in every mode, with the default translation
// and with NoOrSplit (the raw Section 7 conditions).
func routeCases(t *testing.T) []routeCase {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []routeCase
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, routeCfg.Sizes())
		for _, mode := range []string{"standard", "certain", "possible"} {
			text, err := WithMode(q.SQL(), mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{{Parallelism: 1}, {NoOrSplit: true, Parallelism: 1}} {
				name := q.String() + "/" + mode
				if opts.NoOrSplit {
					name += "/raw"
				}
				out = append(out, routeCase{name: name, text: text, params: params, opts: opts})
			}
		}
	}
	return out
}

// TestExplainRendersExecutedPlan: EXPLAIN shows exactly what Execute
// runs. After a prepared execution, the cached plan's rewrite of the
// mode's expression is the planner's (plan.Rewrite), and ExplainPlan
// renders that rewrite with its rules and hints, priced with the
// database's counts (plan.Describe); with NaivePlanner it renders the
// unrewritten expression, lowered (plan.Lower).
func TestExplainRendersExecutedPlan(t *testing.T) {
	inst := tpch.Generate(routeCfg)
	db := FromInternal(inst)
	for _, c := range routeCases(t) {
		p, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecuteWithOptions(c.params, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pl, ok := db.plans.Get(db.planKey(p.text, c.params, c.opts))
		if !ok {
			t.Fatalf("%s: Execute cached no plan", c.name)
		}
		var base algebra.Expr
		var ran *plancache.Optimized
		switch pl.Mode {
		case plancache.ModeCertain:
			base, ran = pl.Plus, pl.PlusOpt
		case plancache.ModePossible:
			base, ran = pl.Star, pl.StarOpt
		default:
			base, ran = pl.Orig, pl.OrigOpt
		}
		want, err := plan.Rewrite(base, inst.Schema, c.opts.physical(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want.Explain = plan.Describe(want.Expr, want.Hints, inst.Schema, inst)
		if ran.Expr.Key() != want.Expr.Key() || !reflect.DeepEqual(ran.Hints, want.Hints) {
			t.Errorf("%s: Execute ran\n%s\nthe planner gives\n%s", c.name, ran.Expr.Key(), want.Expr.Key())
		}
		got, err := db.ExplainPlan(c.text, c.params, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.ExplainText() {
			t.Errorf("%s: EXPLAIN\n%s\ndoes not render the executed plan\n%s", c.name, got, want.ExplainText())
		}
		naiveOpts := c.opts
		naiveOpts.NaivePlanner = true
		naive, err := db.ExplainPlan(c.text, c.params, naiveOpts)
		if err != nil {
			t.Fatal(err)
		}
		low := plan.Lower(base, naiveOpts.physical())
		if tree := plan.Describe(low.Expr, low.Hints, inst.Schema, inst).Render(); !strings.HasSuffix(naive, "rules: (none)\n"+tree) {
			t.Errorf("%s: naive EXPLAIN\n%s\ndoes not render the lowered unrewritten plan\n%s", c.name, naive, tree)
		}
	}
}
