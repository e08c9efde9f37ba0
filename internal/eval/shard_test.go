package eval_test

import (
	"errors"
	"fmt"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// TestShardMatchesUnsharded asserts the routing determinism contract:
// for Q1–Q4 and their Q⁺ translations, under both semantics, every
// Shards setting renders a byte-identical result table to the unsharded
// run — the executor-level half of difftest's shard-ablation invariant.
//
// Shards is consulted in exactly one place, the keep loop under forward
// semijoin probes, buffered filters and unification semijoins, and
// chooses the order such a loop visits its rows in. The appendix
// queries no longer owe it a keep loop: their (anti-)semijoins have the
// smaller input on the probe side, so they index the probe rows and
// stream the build side past them in input order at every shard count
// (DESIGN.md §16) — there is no probe-row loop to route, as there is
// none in Q⁺2, whose uncorrelated antijoin short-circuits. So the
// ShardScatters lower bound lives on a fixture whose probe side is the
// larger one: there the forward path runs, the unsharded run's
// SiteSemijoinProbe hits count its keep loops (at Parallelism 1 each
// fires the site once), and every Shards setting must route as many.
func TestShardMatchesUnsharded(t *testing.T) {
	db := parallelDB(t)
	for _, qid := range tpch.AllQueries {
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			orig, plus, _ := prepareQuery(t, db, qid, sem == value.Naive)
			for name, expr := range map[string]algebra.Expr{"orig": orig, "plus": plus} {
				t.Run(fmt.Sprintf("%s/%v/%s", qid, sem, name), func(t *testing.T) {
					shardsAgree(t, db, expr, sem, false)
				})
			}
		}
	}
	// 3 000 probe rows against 40 build rows: three forward keep loops.
	fwd := newDB(t)
	for i := 0; i < 3000; i++ {
		ins(t, fwd, "r", table.Row{value.Int(int64(i % 97)), value.Int(int64(i % 5))})
	}
	for i := 0; i < 40; i++ {
		ins(t, fwd, "s", table.Row{value.Int(int64(i)), value.Int(int64(i % 3))})
	}
	cond := algebra.NewAnd(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}})
	for _, anti := range []bool{false, true} {
		t.Run(fmt.Sprintf("forward/anti=%v", anti), func(t *testing.T) {
			shardsAgree(t, fwd, algebra.SemiJoin{L: baseR, R: baseS, Cond: cond, Anti: anti}, value.SQL3VL, true)
		})
	}
}

// shardsAgree runs expr unsharded and at Shards 2, 3 and 8 and requires
// byte-identical tables; with forward set it also requires the unsharded
// run to have executed semijoin keep loops and every sharded run to
// have routed at least as many.
func shardsAgree(t *testing.T, db *table.Database, expr algebra.Expr, sem value.Semantics, forward bool) {
	t.Helper()
	loops := faultinject.New()
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(loops)
	want, err := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1, Governor: gov}).Eval(expr)
	if err != nil {
		t.Fatal(err)
	}
	probes := loops.Hits(guard.SiteSemijoinProbe)
	if forward && probes == 0 {
		t.Fatal("the unsharded run executed no semijoin keep loop; the fixture does not take the forward path")
	}
	for _, k := range []int{2, 3, 8} {
		ev := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1, Shards: k})
		got, err := ev.Eval(expr)
		if err != nil {
			t.Fatalf("Shards=%d: %v", k, err)
		}
		if got.String() != want.String() {
			t.Errorf("Shards=%d differs from unsharded:\nunsharded: %s\nsharded:   %s", k, want.String(), got.String())
		}
		if got := ev.Stats().ShardScatters; forward && got < probes {
			t.Errorf("Shards=%d routed %d keep loops, but the unsharded run probed %d semijoin batches", k, got, probes)
		}
	}
}

// shardUnifyDB builds a database whose s build relation is null-free
// and whose r probe side mixes null-free and null-containing rows,
// exercising both the bucket probe and the null-probe full scan.
func shardUnifyDB(t *testing.T, buildRows int) *table.Database {
	t.Helper()
	db := newDB(t)
	for i := 0; i < buildRows; i++ {
		ins(t, db, "s", table.Row{value.Int(int64(i)), value.Int(int64(i % 7))})
	}
	for i := 0; i < 40; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i * 2)), value.Int(int64(i % 7))})
	}
	for i := 0; i < 5; i++ {
		ins(t, db, "r", table.Row{db.FreshNull(), value.Int(int64(i))})
	}
	return db
}

// TestUnifySemiSameWorkAtEveryShardCount asserts that the unification
// semijoin is one operator at every setting: byte-identical rows and
// identical Stats.CostUnits across Shards and Parallelism, for the semi
// and anti variants alike, and the same rows as the NoHashJoin nested
// loop.
func TestUnifySemiSameWorkAtEveryShardCount(t *testing.T) {
	db := shardUnifyDB(t, 60)
	for _, anti := range []bool{false, true} {
		e := algebra.UnifySemi{L: baseR, R: baseS, Anti: anti}
		ref := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
		want, err := ref.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats().UnifyJoins != 1 || ref.Stats().NestedLoopJoins != 0 {
			t.Errorf("anti=%v strategy counters: %+v", anti, ref.Stats())
		}
		nested := run(t, db, e, eval.Options{Semantics: value.SQL3VL, NoHashJoin: true})
		if nested.String() != want.String() {
			t.Errorf("anti=%v index differs from the nested loop:\nnested:  %s\nindexed: %s", anti, nested, want)
		}
		for _, k := range []int{2, 3, 8} {
			for _, par := range []int{1, 4} {
				ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Shards: k, Parallelism: par})
				got, err := ev.Eval(e)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Errorf("anti=%v Shards=%d P=%d differs from unsharded:\nunsharded: %s\nsharded:   %s",
						anti, k, par, want, got)
				}
				if got, want := ev.Stats().CostUnits, ref.Stats().CostUnits; got != want {
					t.Errorf("anti=%v Shards=%d P=%d: %d cost units, unsharded %d", anti, k, par, got, want)
				}
			}
		}
	}
}

// TestUnifyIndexMemChargedOnce is the regression test for the
// build-side memory double-charge: the index is charged exactly once,
// by the coordinator, and borrowed — never re-charged — by the probe
// workers, so the memory high-water mark must not depend on the shard
// count.
func TestUnifyIndexMemChargedOnce(t *testing.T) {
	db := shardUnifyDB(t, 200)
	e := algebra.UnifySemi{L: baseR, R: baseS}
	water := func(o eval.Options) int64 {
		t.Helper()
		o.Semantics = value.SQL3VL
		ev := eval.New(db, o)
		if _, err := ev.Eval(e); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		return ev.Stats().MemHighWaterBytes
	}
	w1, w2, w8 := water(eval.Options{}), water(eval.Options{Shards: 2}), water(eval.Options{Shards: 8})
	if w1 != w2 || w2 != w8 {
		t.Fatalf("MemHighWater depends on the shard count (index charged per shard?): %d / %d / %d bytes", w1, w2, w8)
	}
	// And the charge exists at all: above the index-free nested loop's.
	if bare := water(eval.Options{NoHashJoin: true}); w1 <= bare {
		t.Fatalf("index is not charged: high water %d <= nested loop's %d", w1, bare)
	}
}

// TestSemiWildIndexMemCharged is the regression test for the one
// wild-hash index site that never charged memory: the wild-hash index a raw
// (NoOrSplit) antijoin builds on its unification edge. Every probe row
// finds its key, so the antijoin's answer is empty and the index is the
// operator's only charge: a budget one byte below the index estimate
// must trip ErrMemBudget, the estimate itself must fit, and once the
// iterator is closed nothing may stay charged.
func TestSemiWildIndexMemCharged(t *testing.T) {
	db := shardUnifyDB(t, 200)
	b := algebra.Col{Idx: 2}
	e := algebra.SemiJoin{L: algebra.Select{Child: baseR, Cond: algebra.NullTest{Operand: algebra.Col{Idx: 0}, Negated: true}},
		R: baseS, Anti: true, Cond: algebra.Or{Conds: []algebra.Cond{
			algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: b}, algebra.NullTest{Operand: b}}}}
	s, err := db.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	est := table.BuildIndex(s.Rows(), []int{0}, table.NullsWild, s.Len(), nil).EstimatedBytes()
	gov := guard.Background(guard.Limits{MaxMemBytes: est - 1})
	if _, err := eval.New(db, eval.Options{Governor: gov}).Eval(e); !errors.Is(err, guard.ErrMemBudget) {
		t.Fatalf("budget %d B below the %d B index: err = %v, want ErrMemBudget", est-1, est, err)
	}
	gov = guard.Background(guard.Limits{MaxMemBytes: est})
	ev := eval.New(db, eval.Options{Governor: gov})
	got, err := ev.Eval(e)
	if err != nil || got.Len() != 0 || ev.Stats().UnifyJoins != 1 {
		t.Fatalf("budget = index estimate: %d rows, err %v, stats %+v", got.Len(), err, ev.Stats())
	}
	if hw := gov.MemHighWater(); hw != est {
		t.Errorf("high water %d B, want the index's %d B", hw, est)
	}
	if live := gov.MemCharged(); live != 0 {
		t.Errorf("%d B still charged after the iterator closed", live)
	}
}
