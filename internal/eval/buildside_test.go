package eval_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// buildSideDB draws l(k1,k2,k3,v) with nL rows and r(k1,k2,k3,v) with
// nR rows. Keys come from a pool small enough that duplicates and
// matches are common, as ints or as the equal floats (cross-kind keys
// must meet in one bucket), and about one key in ten is a marked null
// from a pool of four marks — skipped by the index under SQL3VL, joined
// by mark under naive evaluation.
func buildSideDB(t *testing.T, rng *rand.Rand, nL, nR int) *table.Database {
	t.Helper()
	s := schema.New()
	for _, name := range []string{"l", "r"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "k1", Type: value.KindInt, Nullable: true},
			{Name: "k2", Type: value.KindInt, Nullable: true},
			{Name: "k3", Type: value.KindInt, Nullable: true},
			{Name: "v", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	pool := 2 + rng.Intn(7)
	key := func() value.Value {
		switch k := rng.Intn(pool); rng.Intn(10) {
		case 0:
			return value.Null(1 + rng.Int63n(4))
		case 1, 2:
			return value.Float(float64(k))
		default:
			return value.Int(int64(k))
		}
	}
	for rel, n := range map[string]int{"l": nL, "r": nR} {
		for i := 0; i < n; i++ {
			if err := db.Insert(rel, table.Row{key(), key(), key(), value.Int(int64(rng.Intn(5)))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestBuildSideEquivalence is the property the side choice rests on: a
// hash equi-join, semijoin or antijoin returns the rows of the
// NoHashJoin nested loop, in its order, whichever input ends up
// indexed — sizes straddle both directions, |L| = |R| and the empty
// sides included — and spends the same Stats.CostUnits at every
// Parallelism, with 1–3 key columns, trivial and residual
// verify conditions, with and without a fused build-side filter, under
// both semantics.
func TestBuildSideEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sizes := []int{0, 1, 7, 120, 600}
	baseL, baseR := algebra.Base{Name: "l", Cols: 4}, algebra.Base{Name: "r", Cols: 4}
	for trial := 0; trial < 60; trial++ {
		nL, nR := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		if trial%5 == 0 {
			nR = nL
		}
		db := buildSideDB(t, rng, nL, nR)
		var conds []algebra.Cond
		for k := 0; k <= rng.Intn(3); k++ {
			conds = append(conds, algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: k}, R: algebra.Col{Idx: 4 + k}})
		}
		if rng.Intn(2) == 0 { // residual: verified per candidate
			conds = append(conds, algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 3}, R: algebra.Col{Idx: 7}})
		}
		cond := algebra.NewAnd(conds...)
		var e, nested algebra.Expr
		hints := &eval.PlanHints{Semi: map[string]eval.SemiHint{}}
		switch mode := rng.Intn(3); mode {
		case 0:
			e = algebra.Select{Child: algebra.Product{L: baseL, R: baseR}, Cond: cond}
			nested = e
			if nR < nL { // the join block starts at its smaller leaf, so its nested loop runs r-major
				swap := func(c int) int { return (c + 4) % 8 }
				nested = algebra.Project{Cols: []int{4, 5, 6, 7, 0, 1, 2, 3},
					Child: algebra.Select{Child: algebra.Product{L: baseR, R: baseL}, Cond: algebra.MapCols(cond, swap)}}
			}
		default:
			var build algebra.Expr = baseR
			if rng.Intn(2) == 0 { // a select-fed build side the hint may fuse
				build = algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 3}, R: algebra.Lit{Val: value.Int(3)}}}
			}
			semi := algebra.SemiJoin{L: baseL, R: build, Cond: cond, Anti: mode == 2}
			hints.Semi[semi.Key()] = eval.SemiHint{SlimVerify: rng.Intn(2) == 0, FuseBuild: rng.Intn(2) == 0}
			e, nested = semi, semi
		}
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			name := fmt.Sprintf("trial %d (%d × %d, %v, %s)", trial, nL, nR, sem, e.Key())
			want := run(t, db, nested, eval.Options{Semantics: sem, NoHashJoin: true, Parallelism: 1}).String()
			var cost int64
			for _, par := range []int{1, 2, 4} {
				ev := eval.New(db, eval.Options{Semantics: sem, Hints: hints, Parallelism: par})
				got, err := ev.Eval(e)
				if err != nil {
					t.Fatalf("%s P=%d: %v", name, par, err)
				}
				if got.String() != want {
					t.Fatalf("%s P=%d differs from the nested loop:\nnested: %s\nhash:   %s", name, par, want, got)
				}
				if par == 1 {
					cost = ev.Stats().CostUnits
				} else if c := ev.Stats().CostUnits; c != cost {
					t.Fatalf("%s P=%d: %d cost units, %d at P=1", name, par, c, cost)
				}
			}
		}
	}
}

// TestHashJoinIndexMemCharged is the regression test for the equality
// hash joins and semijoins that never charged their index, in both build
// directions: the operator indexes its smaller input, so 30 × 200 rows
// index the 30 (build-left) and 50 × 50 rows index the right side
// (forward). The keys never meet, so the answer is empty and the index
// is the operator's only charge: a budget one byte below its estimate
// must trip ErrMemBudget and leave nothing charged, the estimate itself
// must fit, and nothing may stay charged once the operator is done.
func TestHashJoinIndexMemCharged(t *testing.T) {
	eq := algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}}
	join := algebra.Select{Child: algebra.Product{L: baseR, R: baseS}, Cond: eq}
	semi := algebra.SemiJoin{L: baseR, R: baseS, Cond: eq}
	for _, c := range []struct {
		name    string
		e       algebra.Expr
		nR, nS  int
		indexed string
	}{
		{"join/build-left", join, 30, 200, "r"}, {"join/forward", join, 50, 50, "s"},
		{"semijoin/build-left", semi, 30, 200, "r"}, {"semijoin/forward", semi, 50, 50, "s"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := newDB(t)
			for i := 0; i < c.nR; i++ {
				ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(0)})
			}
			for i := 0; i < c.nS; i++ {
				ins(t, db, "s", table.Row{value.Int(int64(1000 + i)), value.Int(0)})
			}
			indexed, err := db.Table(c.indexed)
			if err != nil {
				t.Fatal(err)
			}
			est := table.BuildIndex(indexed.Rows(), []int{0}, table.NullsSkip, indexed.Len(), nil).EstimatedBytes()
			gov := guard.Background(guard.Limits{MaxMemBytes: est - 1})
			if _, err := eval.New(db, eval.Options{Governor: gov}).Eval(c.e); !errors.Is(err, guard.ErrMemBudget) {
				t.Fatalf("budget %d B below the %d B index: err = %v, want ErrMemBudget", est-1, est, err)
			}
			if live := gov.MemCharged(); live != 0 {
				t.Errorf("%d B still charged after the charge failed", live)
			}
			gov = guard.Background(guard.Limits{MaxMemBytes: est})
			ev := eval.New(db, eval.Options{Governor: gov})
			got, err := ev.Eval(c.e)
			if err != nil || got.Len() != 0 || ev.Stats().HashJoins != 1 {
				t.Fatalf("budget = index estimate: %v rows, err %v, stats %+v", got, err, ev.Stats())
			}
			if hw := gov.MemHighWater(); hw != est {
				t.Errorf("high water %d B, want the index's %d B", hw, est)
			}
			if live := gov.MemCharged(); live != 0 {
				t.Errorf("%d B still charged after the operator finished", live)
			}
		})
	}
}
