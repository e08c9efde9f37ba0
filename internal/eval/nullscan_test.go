package eval_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// TestNullScanMatchesFullScan holds the null-list access path to the
// full scan it replaces. A selection directly over a stored relation is
// read from the table's null lists when its condition requires a null;
// the same selection over Project(identity, Base) is not, so it scans.
// On random tables with marked nulls, both must return the same rows in
// the same order, under both semantics, at any Parallelism,
// and the served selection must spend exactly 2·(|R| − candidates)
// fewer cost units (beyond the projection's own |R|): its scan and its
// filter each read only the candidates — the rows with a null in one
// column of the group with the fewest. The groups are written out per
// case, so the test does not take them from the code it checks.
func TestNullScanMatchesFullScan(t *testing.T) {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "t", Attrs: []schema.Attribute{
		{Name: "a", Type: value.KindInt, Nullable: true},
		{Name: "b", Type: value.KindInt, Nullable: true},
		{Name: "c", Type: value.KindInt, Nullable: true},
	}})
	s.MustAdd(&schema.Relation{Name: "u", Attrs: []schema.Attribute{
		{Name: "x", Type: value.KindInt, Nullable: true},
	}})
	base := algebra.Base{Name: "t", Cols: 3}
	col := func(i int) algebra.Col { return algebra.Col{Idx: i} }
	isNull := func(i int) algebra.Cond { return algebra.NullTest{Operand: col(i)} }
	lit := func(n int64) algebra.Lit { return algebra.Lit{Val: value.Int(n)} }
	maxU := algebra.Scalar{Sub: algebra.Base{Name: "u", Cols: 1}, Agg: algebra.AggMax, Col: 0}
	cases := []struct {
		name   string
		cond   algebra.Cond
		groups [][]int // the null-test groups; none: a full scan
	}{
		{"single", isNull(0), [][]int{{0}}},
		{"and", algebra.NewAnd(isNull(0), isNull(1)), [][]int{{0}, {1}}},
		{"or", algebra.NewOr(isNull(0), isNull(1)), [][]int{{0, 1}}},
		{"or-and-single", algebra.NewAnd(algebra.NewOr(isNull(1), isNull(2)), isNull(0)), [][]int{{1, 2}, {0}}},
		{"negated-const", algebra.Not{C: algebra.NullTest{Operand: col(1), Negated: true}}, [][]int{{1}}},
		{"nested-or", algebra.NewOr(
			algebra.NewAnd(isNull(0), algebra.Cmp{Op: algebra.GT, L: col(1), R: lit(3)}),
			algebra.Cmp{Op: algebra.EQ, L: col(2), R: lit(1)}), nil},
		{"const", algebra.NullTest{Operand: col(0), Negated: true}, nil},
		{"empty-list", isNull(2), [][]int{{2}}},
		{"scalar-rest", algebra.NewAnd(isNull(1), algebra.Cmp{Op: algebra.LT, L: col(0), R: maxU}), [][]int{{1}}},
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 12; trial++ {
		db := table.NewDatabase(s)
		n := rng.Intn(300)
		rate := []float64{0, 0.05, 0.3}[trial%3]
		for i := 0; i < n; i++ {
			row := table.Row{value.Int(int64(rng.Intn(6))), value.Int(int64(rng.Intn(6))), value.Int(int64(rng.Intn(3)))}
			for c := 0; c < 2; c++ { // column c never holds a null: its list is empty
				if rng.Float64() < rate {
					row[c] = db.FreshNull()
				}
			}
			if err := db.Insert("t", row); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 1+rng.Intn(4); i++ {
			x := value.Int(int64(rng.Intn(6)))
			if rng.Float64() < rate {
				x = db.FreshNull()
			}
			if err := db.Insert("u", table.Row{x}); err != nil {
				t.Fatal(err)
			}
		}
		rows := db.MustTable("t").Rows()
		for _, tc := range cases {
			candidates := len(rows)
			for gi, g := range tc.groups {
				k := 0
				for _, r := range rows {
					if slices.ContainsFunc(g, func(c int) bool { return r[c].IsNull() }) {
						k++
					}
				}
				if gi == 0 || k < candidates {
					candidates = k
				}
			}
			served := algebra.Select{Child: base, Cond: tc.cond}
			full := algebra.Select{Child: algebra.Project{Child: base, Cols: []int{0, 1, 2}}, Cond: tc.cond}
			for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("trial %d %s sem=%v P=%d", trial, tc.name, sem, par)
					opts := eval.Options{Semantics: sem, Parallelism: par}
					evS, evF := eval.New(db, opts), eval.New(db, opts)
					got, err := evS.Eval(served)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := evF.Eval(full)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got.String() != want.String() {
						t.Fatalf("%s: null-list read returned\n%s\nthe full scan\n%s", name, got, want)
					}
					saved := evF.Stats().CostUnits - int64(len(rows)) - evS.Stats().CostUnits
					if want := 2 * int64(len(rows)-candidates); saved != want {
						t.Errorf("%s: read %d cost units fewer than the full scan, want 2·(%d − %d) = %d",
							name, saved, len(rows), candidates, want)
					}
				}
			}
		}
	}
}
