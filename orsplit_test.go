package certsql_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"certsql"
	"certsql/internal/tpch"
)

// The certain-answer translations Q⁺1–Q⁺4 run raw (Options.NoOrSplit,
// the paper-faithful Section 7 shape, under the naive planner) and
// OR-split on the Figure 4 instance. Raw plans are the ones whose
// `A = B OR B IS NULL` unification edges defeat hash-key extraction;
// the executor runs them on the wild-bucket index
// (internal/eval/unify.go), so the worker count splits probe rows and
// changes nothing else: not the result bytes, and not the work.

// figure4DB is the Figure 4 instance: scale factor 0.002, 2% nulls.
var figure4DB = sync.OnceValues(func() (*certsql.DB, tpch.Sizes) {
	cfg := tpch.Config{ScaleFactor: 0.002, Seed: 202, NullRate: 0.02}
	return certsql.FromInternal(tpch.Generate(cfg)), cfg.Sizes()
})

type certainVariant struct {
	query string
	text  string
	param certsql.Params
}

// certainVariants yields the certain-mode appendix queries with seeded
// parameter bindings.
func certainVariants(t testing.TB) []certainVariant {
	_, sizes := figure4DB()
	rng := rand.New(rand.NewSource(11))
	var out []certainVariant
	for _, q := range tpch.AllQueries {
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, certainVariant{query: q.String(), text: text, param: q.Params(rng, sizes)})
	}
	return out
}

// TestRawMatchesOrSplit is exact and timing-free: for the raw and the
// OR-split translation of every appendix query, every Parallelism
// setting returns the byte-identical result table and spends the
// identical Stats.CostUnits; the two translations agree on the answer;
// and raw Q⁺4 — the join block with no hash edge, a Cartesian product
// before the unification operator — costs at most twice the OR-split
// Q⁺4.
func TestRawMatchesOrSplit(t *testing.T) {
	db, _ := figure4DB()
	for _, v := range certainVariants(t) {
		stmt, err := db.Prepare(v.text)
		if err != nil {
			t.Fatal(err)
		}
		const split, raw = 0, 1
		var cost [2]int64
		var sorted [2]string
		for tr, name := range []string{split: "OR-split", raw: "raw"} {
			base := certsql.Options{NaivePlanner: true, NoOrSplit: tr == raw}
			want := ""
			for _, par := range []int{1, 4} {
				opts := base
				opts.Parallelism = par
				res, err := stmt.ExecuteWithOptions(v.param, opts)
				if err != nil {
					t.Fatalf("%s %s P=%d: %v", v.query, name, par, err)
				}
				if want == "" {
					want, cost[tr] = res.Table().String(), res.Stats.CostUnits
					sorted[tr] = fmt.Sprint(res.SortedStrings())
					continue
				}
				if res.Table().String() != want {
					t.Errorf("%s %s P=%d changes result bytes", v.query, name, par)
				}
				if res.Stats.CostUnits != cost[tr] {
					t.Errorf("%s %s P=%d: %d cost units, want %d",
						v.query, name, par, res.Stats.CostUnits, cost[tr])
				}
			}
		}
		if sorted[split] != sorted[raw] {
			t.Errorf("%s: raw and OR-split translations disagree on the answer", v.query)
		}
		t.Logf("%s: OR-split %d cost units, raw %d", v.query, cost[split], cost[raw])
		if v.query == "Q4" && cost[raw] > 2*cost[split] {
			t.Errorf("raw Q4 costs %d units, more than twice the OR-split translation's %d", cost[raw], cost[split])
		}
	}
}
