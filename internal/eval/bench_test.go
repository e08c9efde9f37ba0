package eval_test

import (
	"fmt"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// Engine micro-benchmarks: the executor primitives the experiment
// results are built from.

func benchDB(n int, nullRate float64) *table.Database {
	s := schema.New()
	for _, name := range []string{"r", "s"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true},
			{Name: "b", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(1))
	for _, rel := range []string{"r", "s"} {
		for i := 0; i < n; i++ {
			row := table.Row{value.Int(int64(rng.Intn(n))), value.Int(int64(rng.Intn(8)))}
			if rng.Float64() < nullRate {
				row[rng.Intn(2)] = db.FreshNull()
			}
			if err := db.Insert(rel, row); err != nil {
				panic(err)
			}
		}
	}
	return db
}

func benchEval(b *testing.B, db *table.Database, e algebra.Expr, opts eval.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer() // the instance's generation is set-up, not the operator's
	for i := 0; i < b.N; i++ {
		if _, err := eval.New(db, opts).Eval(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashVsNestedAntiJoin(b *testing.B) {
	cond := algebra.NewAnd(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}},
	)
	e := algebra.SemiJoin{
		L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 2},
		Cond: cond, Anti: true,
	}
	for _, n := range []int{1000, 4000} {
		db := benchDB(n, 0.02)
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			benchEval(b, db, e, eval.Options{Semantics: value.SQL3VL})
		})
		b.Run(fmt.Sprintf("nestedloop/n=%d", n), func(b *testing.B) {
			benchEval(b, db, e, eval.Options{Semantics: value.SQL3VL, NoHashJoin: true})
		})
	}
}

func BenchmarkUnifySemiJoin(b *testing.B) {
	e := algebra.UnifySemi{
		L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 2},
		Anti: true,
	}
	db := benchDB(500, 0.05)
	benchEval(b, db, e, eval.Options{Semantics: value.Naive})
}

func BenchmarkGroupBy(b *testing.B) {
	e := algebra.GroupBy{
		Child: algebra.Base{Name: "r", Cols: 2},
		Keys:  []int{1},
		Aggs: []algebra.AggSpec{
			{Func: algebra.AggCount, Col: -1},
			{Func: algebra.AggAvg, Col: 0},
			{Func: algebra.AggMax, Col: 0},
		},
	}
	db := benchDB(10000, 0.02)
	benchEval(b, db, e, eval.Options{Semantics: value.SQL3VL})
}

func BenchmarkSortLimit(b *testing.B) {
	e := algebra.Limit{
		Child: algebra.Sort{
			Child: algebra.Base{Name: "r", Cols: 2},
			Keys:  []algebra.SortKey{{Col: 1, Desc: true}, {Col: 0}},
		},
		N: 10,
	}
	db := benchDB(10000, 0.02)
	benchEval(b, db, e, eval.Options{Semantics: value.SQL3VL})
}

func BenchmarkDivision(b *testing.B) {
	e := algebra.Division{
		L: algebra.Base{Name: "r", Cols: 2},
		R: algebra.Distinct{Child: algebra.Project{Child: algebra.Base{Name: "s", Cols: 2}, Cols: []int{1}}},
	}
	db := benchDB(5000, 0)
	benchEval(b, db, e, eval.Options{Semantics: value.Naive})
}

func BenchmarkJoinBlockPlanner(b *testing.B) {
	// σ over a 3-way product with one join edge and a residual.
	cond := algebra.NewAnd(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}},
	)
	e := algebra.Select{
		Child: algebra.Product{L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 2}},
		Cond:  cond,
	}
	db := benchDB(2000, 0.02)
	benchEval(b, db, e, eval.Options{Semantics: value.SQL3VL})
}

// BenchmarkBuildSide times the hash operators on inputs of very
// different sizes, where which side gets indexed is the whole cost: a
// 60 000-row relation joined with 2 and with 500 rows, semijoined and
// antijoined (through a fused build-side filter) by 500, antijoined by
// 15 000 — all of which index the small side and stream the large one —
// and two forward controls, where the build side already is the smaller
// one: 15 000 rows antijoined against 500, and 60 000 rows semijoined
// against 15 000 under a residual condition that verifies every
// candidate. Run with:
//
//	make bench-join
func BenchmarkBuildSide(b *testing.B) {
	s := schema.New()
	for _, name := range []string{"tiny", "small", "mid", "big"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "k", Type: value.KindInt, Nullable: true},
			{Name: "v", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(24))
	for rel, n := range map[string]int{"tiny": 2, "small": 500, "mid": 15000, "big": 60000} {
		for i := 0; i < n; i++ {
			row := table.Row{value.Int(int64(rng.Intn(15000))), value.Int(int64(rng.Intn(8)))}
			if rng.Float64() < 0.02 {
				row[0] = db.FreshNull()
			}
			if err := db.Insert(rel, row); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := func(name string) algebra.Expr { return algebra.Base{Name: name, Cols: 2} }
	keyEq := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}}
	join := func(l, r string) algebra.Expr {
		return algebra.Select{Child: algebra.Product{L: base(l), R: base(r)}, Cond: keyEq}
	}
	hints := &eval.PlanHints{Semi: map[string]eval.SemiHint{}}
	residual := algebra.NewAnd(keyEq, algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}})
	semi := func(l, r string, cond algebra.Cond, anti, fused bool) algebra.Expr {
		e := algebra.SemiJoin{L: base(l), R: base(r), Cond: cond, Anti: anti}
		if fused {
			e.R = algebra.Select{Child: e.R, Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 1}, R: algebra.Lit{Val: value.Int(6)}}}
		}
		hints.Semi[e.Key()] = eval.SemiHint{SlimVerify: true, FuseBuild: fused}
		return e
	}
	for _, c := range []struct {
		name string
		e    algebra.Expr
	}{
		{"join/2x60000", join("tiny", "big")},
		{"join/500x60000", join("small", "big")},
		{"semi-fused/500x60000", semi("small", "big", keyEq, false, true)},
		{"anti-fused/500x60000", semi("small", "big", keyEq, true, true)},
		{"anti/15000x60000", semi("mid", "big", keyEq, true, false)},
		{"anti-forward/15000x500", semi("mid", "small", keyEq, true, false)},
		{"semi-forward-residual/60000x15000", semi("big", "mid", residual, false, false)},
	} {
		b.Run(c.name, func(b *testing.B) {
			benchEval(b, db, c.e, eval.Options{Semantics: value.SQL3VL, Parallelism: 1, Hints: hints})
		})
	}
}

// BenchmarkJoinBlock times Q4's join block on its own: σ[l_partkey =
// p_partkey ∧ l_suppkey = s_suppkey ∧ s_nationkey = n_nationkey](lineitem
// × part × supplier × nation) over the sf 0.01 TPC-H instance at 2 %
// nulls, with Q4's filters on p_name and n_name ("q4") and without them,
// where every lineitem row with non-null keys is joined to three leaves
// ("edges-only"). Run with:
//
//	make bench-join
func BenchmarkJoinBlock(b *testing.B) {
	db := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.02})
	var leaves []algebra.Expr
	at := map[string]int{} // attribute -> canonical column
	for _, name := range []string{"lineitem", "part", "supplier", "nation"} {
		rel, _ := db.Schema.Relation(name)
		for _, a := range rel.Attrs {
			at[a.Name] = len(at)
		}
		leaves = append(leaves, algebra.Base{Name: name, Cols: rel.Arity()})
	}
	product := leaves[0]
	for _, l := range leaves[1:] {
		product = algebra.Product{L: product, R: l}
	}
	eq := func(a, b string) algebra.Cond {
		return algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: at[a]}, R: algebra.Col{Idx: at[b]}}
	}
	edges := []algebra.Cond{eq("l_partkey", "p_partkey"), eq("l_suppkey", "s_suppkey"), eq("s_nationkey", "n_nationkey")}
	filters := []algebra.Cond{
		algebra.Like{Operand: algebra.Col{Idx: at["p_name"]}, Pattern: algebra.Lit{Val: value.Str("%green%")}},
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: at["n_name"]}, R: algebra.Lit{Val: value.Str("GERMANY")}},
	}
	b.Run("q4", func(b *testing.B) {
		e := algebra.Select{Child: product, Cond: algebra.NewAnd(append(edges, filters...)...)}
		benchEval(b, db, e, eval.Options{Parallelism: 1})
	})
	b.Run("edges-only", func(b *testing.B) {
		benchEval(b, db, algebra.Select{Child: product, Cond: algebra.NewAnd(edges...)}, eval.Options{Parallelism: 1})
	})
}

// BenchmarkNullScan times σ[null(l_partkey)](lineitem) on the sf 0.01
// TPC-H instance at 2 % nulls, read from the null lists ("served")
// against the same selection over an identity projection, which scans
// the whole table. Advisory: wall clock and allocations, -benchmem.
func BenchmarkNullScan(b *testing.B) {
	db := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.02})
	rel, _ := db.Schema.Relation("lineitem")
	base := algebra.Base{Name: "lineitem", Cols: rel.Arity()}
	cond := algebra.NullTest{Operand: algebra.Col{Idx: rel.AttrIndex("l_partkey")}}
	db.MustTable("lineitem").NullRows(0) // build the lists outside the timed loop
	b.Run("served", func(b *testing.B) {
		benchEval(b, db, algebra.Select{Child: base, Cond: cond}, eval.Options{Parallelism: 1})
	})
	b.Run("full-scan", func(b *testing.B) {
		full := algebra.Select{Child: algebra.Project{Child: base, Cols: rangeCols(rel.Arity())}, Cond: cond}
		benchEval(b, db, full, eval.Options{Parallelism: 1})
	})
}

// BenchmarkDrain times a pipeline drained to a table: σ[#12 > #11]
// (l_receiptdate > l_commitdate) over sf 0.01 lineitem at 2 % nulls,
// which keeps about six rows in ten. Advisory: -benchmem shows the
// allocation of the kept rows' pointers, once in the filter's batches
// and once in the drained table.
func BenchmarkDrain(b *testing.B) {
	db := tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.02})
	rel, _ := db.Schema.Relation("lineitem")
	cond := algebra.Cmp{Op: algebra.GT, L: algebra.Col{Idx: 12}, R: algebra.Col{Idx: 11}}
	benchEval(b, db, algebra.Select{Child: algebra.Base{Name: "lineitem", Cols: rel.Arity()}, Cond: cond}, eval.Options{Parallelism: 1})
}

func rangeCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
