package certsql_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"certsql"
	"certsql/internal/plancache"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

func prepDB(t testing.TB) *certsql.DB {
	t.Helper()
	return certsql.OpenTPCH(certsql.TPCHConfig{ScaleFactor: 0.0001, Seed: 7, NullRate: 0.05})
}

// TestPreparedMatchesAdHoc: an ad-hoc query is the prepared route with
// an uncached plan. For every appendix query in every mode, under the
// default options and the executor-side ones that share a cache entry
// (NaivePlanner, NoAnalyzerFastPath, and Degrade under a cost budget
// the Q⋆ route trips), Prepare + Execute twice must byte-match the
// ad-hoc result with equal Stats apart from the plan-cache counters,
// which ad-hoc results leave at zero, and the second execution must
// come from the plan cache.
func TestPreparedMatchesAdHoc(t *testing.T) {
	db := prepDB(t)
	rng := rand.New(rand.NewSource(3))
	sz := tpch.Config{ScaleFactor: 0.0001}.Sizes()
	degraded := 0
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sz)
		// The certain route's cost: a budget it fits, which Q⋆ trips
		// wherever Q⋆ costs more.
		plus, err := db.QueryCertain(q.SQL(), params)
		if err != nil {
			t.Fatalf("%s certain: %v", q, err)
		}
		for _, tc := range []struct {
			name  string
			opts  certsql.Options
			modes []string
		}{
			{"default", certsql.Options{}, []string{"standard", "certain", "possible"}},
			{"naive-planner", certsql.Options{NaivePlanner: true}, []string{"standard", "certain", "possible"}},
			{"no-fast-path", certsql.Options{NoAnalyzerFastPath: true}, []string{"certain"}},
			{"degrade", certsql.Options{Degrade: true, MaxCostUnits: plus.Stats.CostUnits}, []string{"possible"}},
		} {
			for _, mode := range tc.modes {
				name := q.String() + "/" + mode + "/" + tc.name
				text, err := certsql.WithMode(q.SQL(), mode)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				adhoc, err := db.QueryWithOptions(text, params, tc.opts)
				if err != nil {
					t.Fatalf("%s ad-hoc: %v", name, err)
				}
				if adhoc.Stats.PlanCacheHits != 0 || adhoc.Stats.PlanCacheMisses != 0 {
					t.Errorf("%s: ad-hoc result carries plan-cache counters %+v", name, adhoc.Stats)
				}
				db.PlanCache().Purge()
				prep, err := db.Prepare(text)
				if err != nil {
					t.Fatalf("%s prepare: %v", name, err)
				}
				r1, err := prep.ExecuteWithOptions(params, tc.opts)
				if err != nil {
					t.Fatalf("%s execute #1: %v", name, err)
				}
				r2, err := prep.ExecuteWithOptions(params, tc.opts)
				if err != nil {
					t.Fatalf("%s execute #2: %v", name, err)
				}
				if r1.Stats.PlanCacheMisses != 1 || r1.Stats.PlanCacheHits != 0 {
					t.Errorf("%s: first execution stats %+v, want one miss", name, r1.Stats)
				}
				if r2.Stats.PlanCacheHits != 1 || r2.Stats.PlanCacheMisses != 0 {
					t.Errorf("%s: second execution stats %+v, want one hit", name, r2.Stats)
				}
				want := adhoc.Table().String()
				for i, r := range []*certsql.Result{r1, r2} {
					if got := r.Table().String(); got != want {
						t.Errorf("%s: execution #%d differs from ad-hoc\nprepared: %s\nad-hoc:   %s", name, i+1, got, want)
					}
					st := r.Stats
					st.PlanCacheHits, st.PlanCacheMisses = 0, 0
					if st != adhoc.Stats {
						t.Errorf("%s: execution #%d stats %+v, ad-hoc %+v", name, i+1, r.Stats, adhoc.Stats)
					}
					if r.Certain != adhoc.Certain || r.Possible != adhoc.Possible || r.Degraded != adhoc.Degraded ||
						len(r.Warnings) != len(adhoc.Warnings) {
						t.Errorf("%s: execution #%d flags certain=%v possible=%v degraded=%v warnings=%d, ad-hoc %v %v %v %d",
							name, i+1, r.Certain, r.Possible, r.Degraded, len(r.Warnings),
							adhoc.Certain, adhoc.Possible, adhoc.Degraded, len(adhoc.Warnings))
					}
				}
				if adhoc.Degraded {
					degraded++
				}
			}
		}
	}
	if degraded == 0 {
		t.Error("no Degrade case tripped its budget; the ladder went untested")
	}
}

func TestPreparedKeyedByParamsAndOptions(t *testing.T) {
	db := prepDB(t)
	prep, err := db.Prepare(`SELECT CERTAIN n_name FROM nation WHERE n_nationkey = $k`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := prep.Execute(certsql.Params{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	// A different binding compiles its own plan (parameters fold into
	// the algebra), then hits on repetition.
	r2, err := prep.Execute(certsql.Params{"k": 2})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := prep.Execute(certsql.Params{"k": 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PlanCacheMisses != 1 || r2.Stats.PlanCacheMisses != 1 || r3.Stats.PlanCacheHits != 1 {
		t.Fatalf("param keying: stats %+v / %+v / %+v", r1.Stats, r2.Stats, r3.Stats)
	}
	// Translation-affecting options key separately; executor toggles
	// reuse the plan.
	r4, err := prep.ExecuteWithOptions(certsql.Params{"k": 2}, certsql.Options{NoOrSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.PlanCacheMisses != 1 {
		t.Fatalf("NoOrSplit should compile a fresh plan, stats %+v", r4.Stats)
	}
	r5, err := prep.ExecuteWithOptions(certsql.Params{"k": 2}, certsql.Options{NoHashJoin: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r5.Stats.PlanCacheHits != 1 {
		t.Fatalf("executor-only options must reuse the cached plan, stats %+v", r5.Stats)
	}
}

// TestPreparedFastPathRedecidesPerExecution: the cached analyzer
// verdict is schema-level; whether the fast path fires must track the
// data's NOT NULL conformance at each execution.
func TestPreparedFastPathRedecidesPerExecution(t *testing.T) {
	db := certsql.MustOpen(certsql.Table{
		Name: "t",
		Columns: []certsql.Column{
			{Name: "a", Type: certsql.TInt, NotNull: true},
		},
	})
	if err := db.Insert("t", 1); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(`SELECT CERTAIN a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := prep.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.FastPathHits != 1 {
		t.Fatalf("conforming data should take the fast path, stats %+v", r1.Stats)
	}
	// Sneak a null into the NOT NULL column (enforcement is off by
	// default, the violation is only counted).
	if err := db.Insert("t", certsql.NULL); err != nil {
		t.Fatal(err)
	}
	r2, err := prep.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.PlanCacheHits != 1 {
		t.Fatalf("second execution should hit the plan cache, stats %+v", r2.Stats)
	}
	if r2.Stats.FastPathHits != 0 {
		t.Fatal("non-conforming data must not take the analyzer fast path")
	}
	// Either route, the answers must match the ad-hoc certain result.
	adhoc, err := db.QueryCertain(`SELECT a FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r2.Table().String(), adhoc.Table().String(); got != want {
		t.Fatalf("cached-plan certain answers differ from ad-hoc:\nprepared: %s\nad-hoc:   %s", got, want)
	}
}

// TestSnapshotVersionInvalidatesPlans: two DB views sharing one cache
// under different catalog versions must not share plans.
func TestSnapshotVersionInvalidatesPlans(t *testing.T) {
	base := prepDB(t)
	cache := plancache.New(0)
	v1 := certsql.FromSnapshot(base.Internal(), 1, cache)
	v2 := certsql.FromSnapshot(base.Internal(), 2, cache)

	const q = `SELECT CERTAIN n_name FROM nation WHERE n_nationkey = 3`
	p1, err := v1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Execute(nil); err != nil {
		t.Fatal(err)
	}
	r, err := p1.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.PlanCacheHits != 1 {
		t.Fatalf("same-version re-execution should hit, stats %+v", r.Stats)
	}
	rebound := p1.Rebind(v2)
	r2, err := rebound.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.PlanCacheMisses != 1 {
		t.Fatalf("stale plan leaked across a version bump, stats %+v", r2.Stats)
	}
	if cache.Stats().Len != 2 {
		t.Fatalf("expected two version-keyed plans, cache %+v", cache.Stats())
	}
}

func TestPreparedContextCancellation(t *testing.T) {
	db := prepDB(t)
	prep, err := db.Prepare(`SELECT CERTAIN s_suppkey, o_orderkey FROM supplier, lineitem l1, orders, nation WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey AND s_nationkey = n_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := prep.ExecuteContext(ctx, nil); !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("pre-canceled context: err = %v, want ErrCanceled", err)
	}
}

func TestWithMode(t *testing.T) {
	got, err := certsql.WithMode("SELECT a FROM t WHERE a > 1", "certain")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT CERTAIN a FROM t WHERE a > 1"
	if got != want {
		t.Fatalf("WithMode certain = %q, want %q", got, want)
	}
	back, err := certsql.WithMode(got, "standard")
	if err != nil {
		t.Fatal(err)
	}
	if back != "SELECT a FROM t WHERE a > 1" {
		t.Fatalf("WithMode standard = %q", back)
	}
	if _, err := certsql.WithMode("SELECT a FROM t", "weird"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// microTPCH caps every TPC-H table at a handful of rows: a sample
// where the per-execution pipeline cost (parse, compile, analyze,
// translate) dominates evaluation, which is exactly the cost the plan
// cache exists to remove. The speedup measured here is the serving
// layer's overhead win; on larger instances evaluation dominates and
// the ratio tends to 1 (see EXPERIMENTS.md).
func microTPCH(b *testing.B, maxRows int) *certsql.DB {
	b.Helper()
	src := prepDB(b).Internal()
	dst := table.NewDatabase(src.Schema)
	for _, name := range src.Schema.Names() {
		t := src.MustTable(name)
		for i := 0; i < t.Len() && i < maxRows; i++ {
			if err := dst.Insert(name, t.Row(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return certsql.FromInternal(dst)
}

// BenchmarkPreparedVsAdHoc measures the serving layer's headline win:
// repeated execution of the appendix queries through the plan cache
// versus the full parse+translate+analyze pipeline per query. The
// acceptance bar is a ≥2x speedup for prepared execution.
func BenchmarkPreparedVsAdHoc(b *testing.B) {
	db := microTPCH(b, 3)
	rng := rand.New(rand.NewSource(3))
	sz := tpch.Config{ScaleFactor: 0.0001}.Sizes()
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sz)
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			b.Fatal(err)
		}
		b.Run("adhoc/"+q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(text, params); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("prepared/"+q.String(), func(b *testing.B) {
			prep, err := db.Prepare(text)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := prep.Execute(params); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prep.Execute(params)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.PlanCacheHits != 1 {
					b.Fatal("benchmark iteration missed the plan cache")
				}
			}
		})
	}
}
