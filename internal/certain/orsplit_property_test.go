package certain_test

import (
	"errors"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/eval"
	"certsql/internal/table"
	"certsql/internal/value"
)

// genChainDB fills r, s and k with one to three rows each, every
// nullable cell a fresh null with probability rate, at most maxNulls of
// them so that brute force stays feasible.
func genChainDB(rng *rand.Rand, rate float64, maxNulls int) *table.Database {
	db := table.NewDatabase(propSchema())
	nulls := 0
	cell := func() value.Value {
		if nulls < maxNulls && rng.Float64() < rate {
			nulls++
			return db.FreshNull()
		}
		return value.Int(int64(rng.Intn(3)))
	}
	for _, rel := range []string{"r", "s", "k"} {
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			row := table.Row{cell(), cell()}
			if rel == "k" {
				row[0] = value.Int(int64(i))
			}
			if err := db.Insert(rel, row); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// genChainAntiJoin builds
//
//	outer ▷θ (leaf₁ × … × leafₙ)
//
// whose θ chains the leaves with equality edges leafᵢ.x = leafᵢ₊₁.y
// and, unless uncorrelated, ties the outer side to one leaf by another
// equality; a single-leaf filter rides along half the time. Leaves and
// columns are drawn from r, s and k, so edges land on nullable columns
// and on k's key alike.
func genChainAntiJoin(rng *rand.Rand, n int, correlated bool) algebra.Expr {
	rels := []string{"r", "s", "k"}
	base := func() algebra.Expr { return algebra.Base{Name: rels[rng.Intn(len(rels))], Cols: 2} }
	outer := base()
	leaves := make([]algebra.Expr, n)
	for i := range leaves {
		leaves[i] = base()
	}
	col := func(leaf int) algebra.Col { return algebra.Col{Idx: 2 + 2*leaf + rng.Intn(2)} }
	var conj []algebra.Cond
	for i := 0; i+1 < n; i++ {
		conj = append(conj, algebra.Cmp{Op: algebra.EQ, L: col(i), R: col(i + 1)})
	}
	if correlated {
		conj = append(conj, algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: rng.Intn(2)}, R: col(rng.Intn(n))})
	}
	if rng.Intn(2) == 0 {
		conj = append(conj, algebra.Cmp{Op: algebra.NE, L: col(rng.Intn(n)), R: algebra.Lit{Val: value.Int(int64(rng.Intn(3)))}})
	}
	inner := leaves[0]
	for _, l := range leaves[1:] {
		inner = algebra.Product{L: inner, R: l}
	}
	return algebra.SemiJoin{L: outer, R: inner, Cond: algebra.NewAnd(conj...), Anti: true}
}

// TestOrSplitOnJoinChains is the split criterion's property test: on
// three- and four-leaf NOT EXISTS subqueries whose join edges all turn
// into `A = B OR … IS NULL` disjunctions, the translation with SplitOrs
// (which distributes only the disjunctions on the correlated leaf) and
// the one without return the same table, row for row, and both stay
// inside cert(Q, D).
func TestOrSplitOnJoinChains(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	checked := 0
	for i := 0; i < iterations(t, 300); i++ {
		rate := []float64{0, 0.1, 0.5}[i%3]
		db := genChainDB(rng, rate, 4)
		q := genChainAntiJoin(rng, 3+i%2, i%5 != 0)

		cert, err := certain.CertainAnswers(q, db, certain.BruteForceOptions{})
		if err != nil && !errors.Is(err, certain.ErrBruteForceTooLarge) {
			t.Fatalf("iter %d: brute force: %v", i, err)
		}
		for _, mode := range []struct {
			name string
			mode certain.CondMode
			opts eval.Options
		}{
			{"naive", certain.ModeNaive, eval.Options{Semantics: value.Naive}},
			{"sql", certain.ModeSQL, eval.Options{Semantics: value.SQL3VL}},
		} {
			unsplit := evalOn(t, db, (&certain.Translator{Sch: db.Schema, Mode: mode.mode, SimplifyNulls: true}).Plus(q), mode.opts)
			split := evalOn(t, db, (&certain.Translator{Sch: db.Schema, Mode: mode.mode, SimplifyNulls: true, SplitOrs: true}).Plus(q), mode.opts)
			if split.String() != unsplit.String() {
				t.Fatalf("iter %d (%s, %.0f%% nulls): SplitOrs changed Q+\nquery:\n%sunsplit: %v\nsplit:   %v",
					i, mode.name, 100*rate, algebra.Format(q), unsplit, split)
			}
			if cert == nil {
				continue
			}
			checked++
			if ok, witness := subset(split, cert); !ok {
				t.Fatalf("iter %d (%s, %.0f%% nulls): Q+ returned non-certain tuple %v\nquery:\n%scert: %v\ngot:  %v",
					i, mode.name, 100*rate, witness, algebra.Format(q), cert.SortedStrings(), split.SortedStrings())
			}
		}
	}
	if checked < iterations(t, 300) {
		t.Errorf("only %d of %d evaluations were checked against brute force", checked, 2*iterations(t, 300))
	}
}
