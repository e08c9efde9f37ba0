package certsql_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"certsql"
	"certsql/internal/tpch"
)

// The shard matrix runs the certain-answer translations Q⁺1–Q⁺4 raw
// (Options.NoOrSplit, the paper-faithful Section 7 shape, under the
// naive planner) and OR-split across shard counts and worker counts on
// the Figure 4 instance. Raw plans are the ones whose `A = B OR B IS
// NULL` unification edges defeat hash-key extraction; the executor runs
// them on the wild-bucket index (internal/eval/unify.go) at every
// setting, so Options.Shards and Options.Parallelism route probe rows
// and change nothing else: not the result bytes, and not the work.

// figure4DB is the Figure 4 instance: scale factor 0.002, 2% nulls.
var figure4DB = sync.OnceValues(func() (*certsql.DB, tpch.Sizes) {
	cfg := tpch.Config{ScaleFactor: 0.002, Seed: 202, NullRate: 0.02}
	return certsql.FromInternal(tpch.Generate(cfg)), cfg.Sizes()
})

type shardVariant struct {
	query string
	text  string
	param certsql.Params
}

// shardVariants yields the certain-mode appendix queries with seeded
// parameter bindings.
func shardVariants(t testing.TB) []shardVariant {
	_, sizes := figure4DB()
	rng := rand.New(rand.NewSource(11))
	var out []shardVariant
	for _, q := range tpch.AllQueries {
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, shardVariant{query: q.String(), text: text, param: q.Params(rng, sizes)})
	}
	return out
}

// BenchmarkShardSpeedup times the raw certain-answer translations
// Q⁺1–Q⁺4 at Shards 4 against the unsharded executor, on prepared
// statements so the measurement is execution, not planning or
// translation. Both sides do the same work (the cost-units metric is
// equal); the difference is hashing every probe row to find its owner
// and visiting the rows in that order. EXPERIMENTS.md records the
// measured ratios. Run with:
//
//	make bench-shard
func BenchmarkShardSpeedup(b *testing.B) {
	db, _ := figure4DB()
	for _, v := range shardVariants(b) {
		for _, shards := range []int{4, 1} {
			b.Run(fmt.Sprintf("%s/shards=%d", v.query, shards), func(b *testing.B) {
				stmt, err := db.Prepare(v.text)
				if err != nil {
					b.Fatal(err)
				}
				opts := certsql.Options{Parallelism: 1, NaivePlanner: true, NoOrSplit: true, Shards: shards}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := stmt.ExecuteWithOptions(v.param, opts)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Stats.CostUnits), "cost-units")
				}
			})
		}
	}
}

// TestShardsRouteOnly is the acceptance check behind the benchmark,
// exact and timing-free: for the raw and the OR-split translation of
// every appendix query, every Shards × Parallelism setting returns the
// byte-identical result table and spends the identical Stats.CostUnits;
// the two translations agree on the answer; and raw Q⁺4 — the join
// block with no hash edge, a Cartesian product before the unification
// operator — costs at most twice the OR-split Q⁺4.
func TestShardsRouteOnly(t *testing.T) {
	db, _ := figure4DB()
	for _, v := range shardVariants(t) {
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
			for _, shards := range []int{1, 2, 3, 8} {
				for _, par := range []int{1, 4} {
					opts := base
					opts.Shards, opts.Parallelism = shards, par
					res, err := stmt.ExecuteWithOptions(v.param, opts)
					if err != nil {
						t.Fatalf("%s %s Shards=%d P=%d: %v", v.query, name, shards, par, err)
					}
					if want == "" {
						want, cost[tr] = res.Table().String(), res.Stats.CostUnits
						sorted[tr] = fmt.Sprint(res.SortedStrings())
						continue
					}
					if res.Table().String() != want {
						t.Errorf("%s %s Shards=%d P=%d changes result bytes", v.query, name, shards, par)
					}
					if res.Stats.CostUnits != cost[tr] {
						t.Errorf("%s %s Shards=%d P=%d: %d cost units, want %d",
							v.query, name, shards, par, res.Stats.CostUnits, cost[tr])
					}
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
