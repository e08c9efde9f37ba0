package eval_test

import (
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
// Shards is consulted in exactly one place, the keep loop under
// semijoin probes, buffered filters and unification semijoins, so a
// plan is only required to count ShardScatters where the unsharded run
// of the same plan executed such a loop. The unsharded run's
// SiteSemijoinProbe hits witness that: at Parallelism 1 every probe
// keep loop fires the site once. Q⁺2 has none — its uncorrelated
// antijoin short-circuits to the empty result and the rest of the plan
// streams — and must still be byte-identical.
func TestShardMatchesUnsharded(t *testing.T) {
	db := parallelDB(t)
	routed := 0
	for _, qid := range tpch.AllQueries {
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			orig, plus, _ := prepareQuery(t, db, qid, sem == value.Naive)
			for name, expr := range map[string]algebra.Expr{"orig": orig, "plus": plus} {
				t.Run(fmt.Sprintf("%s/%v/%s", qid, sem, name), func(t *testing.T) {
					loops := faultinject.New()
					gov := guard.Background(guard.Limits{})
					gov.SetFaultHook(loops)
					ref := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1, Governor: gov})
					want, err := ref.Eval(expr)
					if err != nil {
						t.Fatal(err)
					}
					probes := loops.Hits(guard.SiteSemijoinProbe)
					for _, k := range []int{2, 3, 8} {
						ev := eval.New(db, eval.Options{Semantics: sem, Parallelism: 1, Shards: k})
						got, err := ev.Eval(expr)
						if err != nil {
							t.Fatalf("Shards=%d: %v", k, err)
						}
						if got.String() != want.String() {
							t.Errorf("Shards=%d differs from unsharded:\nunsharded: %s\nsharded:   %s",
								k, want.String(), got.String())
						}
						if got := ev.Stats().ShardScatters; got < probes {
							t.Errorf("Shards=%d routed %d keep loops, but the unsharded run probed %d semijoin batches", k, got, probes)
						}
						routed += ev.Stats().ShardScatters
					}
				})
			}
		}
	}
	if routed == 0 {
		t.Error("no keep loop was routed on any query; the sharded path was not exercised")
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
