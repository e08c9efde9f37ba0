package certsql

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/plan"
	"certsql/internal/plancache"
	"certsql/internal/stats"
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
// mode's expression is the planner's (plan.Optimize, which reads the
// statistics only to price the tree), and ExplainPlan renders that
// rewrite with its rules and hints; with NaivePlanner it renders the
// unrewritten expression, lowered (plan.Lower).
func TestExplainRendersExecutedPlan(t *testing.T) {
	inst := tpch.Generate(routeCfg)
	db := FromInternal(inst)
	st := stats.NewCollector().Collect(inst)
	for _, c := range routeCases(t) {
		p, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecuteWithOptions(c.params, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pl, ok := db.plans.Get(plancache.Key{SQL: p.text, CatalogVersion: db.catver,
			Params: fingerprintParams(c.params), Options: fingerprintPlanOptions(c.opts)})
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
		want, err := plan.Optimize(base, inst.Schema, st, nil)
		if err != nil {
			t.Fatal(err)
		}
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
		if tree := plan.Describe(low.Expr, low.Hints, inst.Schema, st).Render(); !strings.HasSuffix(naive, "rules: (none)\n"+tree) {
			t.Errorf("%s: naive EXPLAIN\n%s\ndoes not render the lowered unrewritten plan\n%s", c.name, naive, tree)
		}
	}
}

// TestExecutionReadsNoStatistics: a fault armed at the statistics
// collector's first table scan never fires on Query or on a prepared
// statement's cold and warm Execute, in any mode, on either planner
// route — on a fresh DB, whose collector has scanned nothing. EXPLAIN,
// which prices its tree with statistics, is the control: the same fault
// fails it.
func TestExecutionReadsNoStatistics(t *testing.T) {
	inst := tpch.Generate(routeCfg)
	armed := func(opts Options) (Options, *faultinject.Injector) {
		inj := faultinject.New(faultinject.Fault{Site: guard.SiteStatsCollect, Kind: faultinject.KindError, HitNumber: 1})
		opts.Guard = guard.Background(guard.Limits{})
		opts.Guard.SetFaultHook(inj)
		return opts, inj
	}
	for _, c := range routeCases(t) {
		for _, naive := range []bool{false, true} {
			db := FromInternal(inst)
			c.opts.NaivePlanner = naive
			opts, inj := armed(c.opts)
			if _, err := db.QueryWithOptions(c.text, c.params, opts); err != nil {
				t.Fatalf("%s naive-planner=%v: Query: %v", c.name, naive, err)
			}
			p, err := db.Prepare(c.text)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				if _, err := p.ExecuteWithOptions(c.params, opts); err != nil {
					t.Fatalf("%s naive-planner=%v: Execute %d: %v", c.name, naive, run, err)
				}
			}
			if n := inj.Hits(guard.SiteStatsCollect); n != 0 {
				t.Errorf("%s naive-planner=%v: execution reached the statistics collector %d time(s)", c.name, naive, n)
			}
			if _, err := db.ExplainPlan(c.text, c.params, opts); !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("%s naive-planner=%v: EXPLAIN under the armed fault: err = %v, want the injected fault", c.name, naive, err)
			}
		}
	}
}
