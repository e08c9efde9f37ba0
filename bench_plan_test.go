package certsql_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"certsql"
	"certsql/internal/tpch"
)

// benchPlanDB is the instance the planner benchmarks run on: a complete
// TPC-H generation with 5% nulls injected into orders and customer
// only. Restricting injection mirrors the paper's per-scenario choice
// of null attributes and is what gives the statistics something to
// prove: lineitem, part, supplier and nation stay null-free in the
// data, so the planner's null-test-elimination premises actually hold
// and are re-checked against live statistics on each prepared
// execution.
func benchPlanDB() (*certsql.DB, tpch.Sizes) {
	cfg := tpch.Config{ScaleFactor: 0.004, Seed: 42}
	inner := tpch.Generate(cfg)
	tpch.InjectNullsInto(inner, 0.05, rand.New(rand.NewSource(42)), "orders", "customer")
	return certsql.FromInternal(inner), cfg.Sizes()
}

// planVariant is one (translation, planner) cell of the speedup matrix.
// Raw keeps the Section 7 translation's `A = B OR B IS NULL`
// disjunctions intact (Options.NoOrSplit) — the hash-hostile shape the
// paper reports confusing a production optimizer — so the cost-based
// planner's anti-split rule is doing the rescue instead of the
// translator. Parallelism is pinned to 1: the ratios measure plan
// quality, not scheduler behaviour.
type planVariant struct {
	query string
	label string // "default" or "raw"
	text  string
	param certsql.Params
	cost  certsql.Options
	naive certsql.Options
}

// plannerVariants yields the certain-mode appendix queries with seeded
// parameter bindings, under both the default and the raw translation.
// Raw Q4's join block has only `= OR IS NULL` join edges; the executor
// runs them on the wild-bucket index under either planner.
func plannerVariants(t testing.TB) []planVariant {
	_, sizes := benchPlanDB()
	rng := rand.New(rand.NewSource(7))
	var out []planVariant
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sizes)
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planVariant{
			query: q.String(), label: "default", text: text, param: params,
			cost:  certsql.Options{Parallelism: 1},
			naive: certsql.Options{Parallelism: 1, NaivePlanner: true},
		})
		out = append(out, planVariant{
			query: q.String(), label: "raw", text: text, param: params,
			cost:  certsql.Options{Parallelism: 1, NoOrSplit: true},
			naive: certsql.Options{Parallelism: 1, NoOrSplit: true, NaivePlanner: true},
		})
	}
	return out
}

// BenchmarkPlannerSpeedup times the certain-answer translations
// Q⁺1–Q⁺4 under the cost-based planner against the paper-faithful
// naive plans (Options.NaivePlanner), on prepared statements so the
// measurement is execution, not planning. The planner's anti-split,
// null-test elimination, fused builds and hash hints turn the
// translations' nested-loop antijoins back into hash joins — the
// entire point of the subsystem; EXPERIMENTS.md records the measured
// ratios.
//
// It also carries the acceptance bar, which is a wall-clock ratio and
// therefore does not belong in `go test ./...`: on at least two of the
// four appendix queries the cost-based planner must run at least 1.5×
// faster than the naive one, comparing each side's fastest iteration
// and counting a query that clears the bar under either translation.
// The measured ratios are far above the margin — Q3 ~2.6× under the
// default translation, Q2 ~3.7× under the raw one. Run with:
//
//	make bench-plan
func BenchmarkPlannerSpeedup(b *testing.B) {
	db, _ := benchPlanDB()
	variants := plannerVariants(b)
	best := map[string]time.Duration{} // fastest iteration per sub-benchmark
	for _, v := range variants {
		for _, side := range []struct {
			name string
			opts certsql.Options
		}{{"cost-based", v.cost}, {"naive", v.naive}} {
			name := fmt.Sprintf("%s/%s/%s", v.query, v.label, side.name)
			b.Run(name, func(b *testing.B) {
				stmt, err := db.Prepare(v.text)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					res, err := stmt.ExecuteWithOptions(v.param, side.opts)
					if err != nil {
						b.Fatal(err)
					}
					if d := time.Since(start); best[name] == 0 || d < best[name] {
						best[name] = d
					}
					b.ReportMetric(float64(res.Stats.CostUnits), "cost-units")
				}
			})
		}
	}
	if len(best) < 2*len(variants) {
		return // a -bench filter selected a subset: nothing to compare
	}
	fast := map[string]bool{}
	for _, v := range variants {
		prefix := v.query + "/" + v.label + "/"
		if float64(best[prefix+"naive"]) >= 1.5*float64(best[prefix+"cost-based"]) {
			fast[v.query] = true
		}
	}
	if len(fast) < 2 {
		b.Fatalf("cost-based planner reached a 1.5x speedup on only %d of 4 appendix queries, want >= 2", len(fast))
	}
}

// TestPlannerSpeedup is the exact half of the planner's acceptance
// check: under both translations of every appendix query the cost-based
// and the naive planner return byte-identical results. The timed half —
// the ≥ 1.5× bar — lives in BenchmarkPlannerSpeedup.
func TestPlannerSpeedup(t *testing.T) {
	db, _ := benchPlanDB()
	for _, v := range plannerVariants(t) {
		stmt, err := db.Prepare(v.text)
		if err != nil {
			t.Fatal(err)
		}
		var tables [2]string
		for i, opts := range []certsql.Options{v.cost, v.naive} {
			res, err := stmt.ExecuteWithOptions(v.param, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", v.query, v.label, err)
			}
			tables[i] = res.Table().String()
		}
		if tables[0] != tables[1] {
			t.Errorf("%s/%s: planner changes result bytes", v.query, v.label)
		}
	}
}
