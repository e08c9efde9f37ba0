package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/plan"
	"certsql/internal/refeval"
	"certsql/internal/value"
)

// TestRedundantGuards holds the plans the physical lowering gives —
// the const() guards dropped under SQL3VL and the build side it reads
// in two parts — to the answers of the reference evaluator (as a bag)
// and of the unlowered expression run without hints (rows and order),
// under both semantics at Parallelism 1 and 4. Each case is lowered as
// on the planner's route (plan.Rewrite, with its FuseBuild hints) or on
// the paper-faithful one (plan.Lower). The trace must show each drop and
// split read under SQL3VL only, and only on the shapes that license it.
func TestRedundantGuards(t *testing.T) {
	db := joinStepsDB(t)
	base := func(name string) algebra.Expr { return algebra.Base{Name: name, Cols: 3} }
	col := func(i int) algebra.Col { return algebra.Col{Idx: i} }
	eq := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.EQ, L: col(a), R: col(b)} }
	ne := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.NE, L: col(a), R: col(b)} }
	gt := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.GT, L: col(a), R: col(b)} }
	isConst := func(i int) algebra.Cond { return algebra.NullTest{Operand: col(i), Negated: true} }
	isNull := func(i int) algebra.Cond { return algebra.NullTest{Operand: col(i)} }
	// a × b, a #0-#2 and b #3-#5: b.v > b.k2 with both guarded, and a.k
	// guarded though the edge compares it. Under SQL3VL b's leaf is
	// σ[#2 > #1](b) and a's is a itself.
	block := algebra.Select{Child: algebra.Product{L: base("a"), R: base("b")},
		Cond: algebra.NewAnd(eq(0, 3), isConst(0), gt(5, 4), isConst(5), isConst(4))}
	// NOT EXISTS b′ (#6-#8) with b′.k = a.k and b′.v ≠ a.v, over a build
	// side σ[build](b); the probe side's b.k2 ≠ b′.k2 keeps it correlated.
	anti := func(build algebra.Cond) algebra.SemiJoin {
		return algebra.SemiJoin{Anti: true, L: block, R: algebra.Select{Child: base("b"), Cond: build},
			Cond: algebra.NewAnd(eq(0, 6), ne(2, 8))}
	}
	// EXISTS b′ with a.k = b′.k and a.v ≠ b′.v, over σ[const(b′.v)](b):
	// the semijoin's own comparison implies the guard.
	semi := algebra.SemiJoin{L: base("a"), R: algebra.Select{Child: base("b"), Cond: isConst(2)},
		Cond: algebra.NewAnd(eq(0, 3), ne(2, 5))}
	cases := []struct {
		name    string
		e       algebra.Expr
		planned bool
		// filters counts the filter notes under SQL3VL and naive
		// semantics; split says the SQL3VL trace reads σ[#2 > #1](b)
		// from the view cache and b's null lists (naive's never does).
		filters [2]int
		split   bool
	}{
		{"join-leaves", block, false, [2]int{1, 2}, false},
		{"split-build", anti(algebra.NewOr(gt(2, 1), isNull(2), isNull(1))), true, [2]int{1, 2}, true},
		{"not-strict", anti(algebra.NewOr(gt(2, 1), isNull(0))), true, [2]int{1, 2}, false},
		{"semi-build", semi, false, [2]int{0, 1}, false},
	}
	for _, c := range cases {
		for si, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			name := fmt.Sprintf("%s/%v", c.name, sem)
			ref, err := refeval.Rows(db, sem, c.e)
			if err != nil {
				t.Fatal(err)
			}
			low := plan.Lower(c.e, plan.Physical{Semantics: sem})
			if c.planned {
				if low, err = plan.Rewrite(c.e, db.Schema, plan.Physical{Semantics: sem}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if dropped := low.Expr.Key() != c.e.Key(); dropped != (sem == value.SQL3VL) {
				t.Errorf("%s: lowering dropped guards: %v", name, dropped)
			}
			unlowered := run(t, db, c.e, eval.Options{Semantics: sem, Parallelism: 1})
			if !refeval.SameMultiset(unlowered.Rows(), ref) {
				t.Errorf("%s: %d rows unlowered, the reference has %d", name, unlowered.Len(), len(ref))
			}
			for _, par := range []int{1, 4} {
				ev := eval.New(db, eval.Options{Semantics: sem, Hints: low.Hints, Parallelism: par, Trace: true})
				got, err := ev.Eval(low.Expr)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != unlowered.String() {
					t.Errorf("%s P=%d: rows differ from the unlowered run", name, par)
				}
				trace := ev.Trace()
				if n := strings.Count(trace, "filter ~>"); n != c.filters[si] {
					t.Errorf("%s P=%d: %d filters, want %d\n%s", name, par, n, c.filters[si], trace)
				}
				read := strings.Contains(trace, "cached σ[#2 > #1](b) -> ") && strings.Contains(trace, "scan b nulls(#2,#1) -> ")
				if want := c.split && sem == value.SQL3VL; read != want || (!want && strings.Contains(trace, "nulls(")) {
					t.Errorf("%s P=%d: split build read %v, want %v\n%s", name, par, read, want, trace)
				}
			}
		}
	}
}
