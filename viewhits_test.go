package certsql

import (
	"errors"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/tpch"
)

// TestViewHitsOnAppendixQueries pins the view-cache hits of Q1–Q4 in
// standard and CERTAIN mode on the default route, cold and warm, and
// that the planner marks exactly the hitless ones (Views.NoHits): their
// executions render no view key, and lose no hit by it.
func TestViewHitsOnAppendixQueries(t *testing.T) {
	want := map[string]int{
		"Q1/standard": 1, "Q1/certain": 1,
		"Q2/standard": 0, "Q2/certain": 0,
		"Q3/standard": 0, "Q3/certain": 0,
		"Q4/standard": 0, "Q4/certain": 6,
	}
	db := FromInternal(tpch.Generate(routeCfg))
	for _, c := range routeCases(t) {
		w, ok := want[c.name]
		if !ok {
			continue // possible mode, raw conditions
		}
		p, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			res, err := p.ExecuteWithOptions(c.params, c.opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.Stats.CacheHits != w {
				t.Errorf("%s run %d: %d view-cache hits, want %d", c.name, run, res.Stats.CacheHits, w)
			}
		}
		pl, _, err := db.lookupPlan(guard.Background(guard.Limits{}), db.planKey(p.text, c.params, c.opts), nil, c.params, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if noHits := pick(pl, pl.Mode, c.opts).Hints.Views.NoHits; noHits != (w == 0) {
			t.Errorf("%s: Views.NoHits = %v with %d hits", c.name, noHits, w)
		}
	}
}

// TestExplainReadsCachedPlan: EXPLAIN of a statement that has executed
// renders its cached plan without compiling it again — a fault armed
// at the planner's rewrite never fires — and is the EXPLAIN of a cold
// statement, which compiles (the control: the same fault fails it) and
// caches nothing.
func TestExplainReadsCachedPlan(t *testing.T) {
	db := FromInternal(tpch.Generate(routeCfg))
	for _, c := range routeCases(t) {
		cold, err := db.ExplainPlan(c.text, c.params, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.ExecuteWithOptions(c.params, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Stats.PlanCacheMisses != 1 {
			t.Errorf("%s: Execute after a cold EXPLAIN found its plan cached", c.name)
		}
		armed := func() (Options, *faultinject.Injector) {
			inj := faultinject.New(faultinject.Fault{Site: guard.SitePlanRewrite, Kind: faultinject.KindError, HitNumber: 1})
			opts := c.opts
			opts.Guard = guard.Background(guard.Limits{})
			opts.Guard.SetFaultHook(inj)
			return opts, inj
		}
		opts, inj := armed()
		warm, err := db.ExplainPlan(c.text, c.params, opts)
		if err != nil {
			t.Fatalf("%s: EXPLAIN after Execute: %v", c.name, err)
		}
		if n := inj.Hits(guard.SitePlanRewrite); n != 0 {
			t.Errorf("%s: EXPLAIN after Execute rewrote the plan %d time(s)", c.name, n)
		}
		if warm != cold {
			t.Errorf("%s: EXPLAIN of the cached plan\n%s\ndiffers from the cold EXPLAIN\n%s", c.name, warm, cold)
		}
		db.plans.Purge()
		opts, _ = armed()
		if _, err := db.ExplainPlan(c.text, c.params, opts); !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s: cold EXPLAIN under the armed fault: err = %v, want the injected fault", c.name, err)
		}
	}
}
