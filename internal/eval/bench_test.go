package eval_test

import (
	"fmt"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
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
