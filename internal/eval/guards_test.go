package eval_test

import (
	"fmt"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/refeval"
	"certsql/internal/value"
)

// TestRedundantGuards holds the const() guards dropped under SQL3VL,
// and the cached build read they enable, to the answers of the
// reference evaluator (as a bag) and of a run without the view cache
// (rows and order), under both semantics at Parallelism 1 and 4. The
// trace must show each drop and cached read under SQL3VL only, and only
// on the shapes that license it.
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
	cached := anti(algebra.NewOr(gt(2, 1), isNull(2), isNull(1)))
	notStrict := anti(algebra.NewOr(gt(2, 1), isNull(0)))
	// EXISTS b′ with a.k = b′.k and a.v ≠ b′.v, over σ[const(b′.v)](b):
	// the semijoin's own comparison implies the guard.
	semi := algebra.SemiJoin{L: base("a"), R: algebra.Select{Child: base("b"), Cond: isConst(2)},
		Cond: algebra.NewAnd(eq(0, 3), ne(2, 5))}
	fused := func(e algebra.SemiJoin) *eval.PlanHints {
		return &eval.PlanHints{Semi: map[string]eval.SemiHint{e.Key(): {FuseBuild: true}}}
	}
	cases := []struct {
		name  string
		e     algebra.Expr
		hints *eval.PlanHints
		// filters counts the filter notes under SQL3VL and naive
		// semantics; cachedRead says the SQL3VL trace reads σ[#2 > #1](b)
		// from the view cache and b's null lists (naive's never does).
		filters    [2]int
		cachedRead bool
	}{
		{"join-leaves", block, nil, [2]int{1, 2}, false},
		{"cached-build", cached, fused(cached), [2]int{1, 2}, true},
		{"not-strict", notStrict, fused(notStrict), [2]int{1, 2}, false},
		{"semi-build", semi, nil, [2]int{0, 1}, false},
	}
	for _, c := range cases {
		for si, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			name := fmt.Sprintf("%s/%v", c.name, sem)
			ref, err := refeval.Rows(db, sem, c.e)
			if err != nil {
				t.Fatal(err)
			}
			uncached := run(t, db, c.e, eval.Options{Semantics: sem, Hints: c.hints, NoSubplanCache: true, Parallelism: 1})
			if !refeval.SameMultiset(uncached.Rows(), ref) {
				t.Errorf("%s: %d rows without the view cache, the reference has %d", name, uncached.Len(), len(ref))
			}
			for _, par := range []int{1, 4} {
				ev := eval.New(db, eval.Options{Semantics: sem, Hints: c.hints, Parallelism: par, Trace: true})
				got, err := ev.Eval(c.e)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != uncached.String() {
					t.Errorf("%s P=%d: rows differ from the run without the view cache", name, par)
				}
				trace := ev.Trace()
				if n := strings.Count(trace, "filter ~>"); n != c.filters[si] {
					t.Errorf("%s P=%d: %d filters, want %d\n%s", name, par, n, c.filters[si], trace)
				}
				read := strings.Contains(trace, "cached algebra.Select -> ") && strings.Contains(trace, "scan b nulls(#2,#1) -> ")
				if want := c.cachedRead && sem == value.SQL3VL; read != want || (!want && strings.Contains(trace, "nulls(")) {
					t.Errorf("%s P=%d: cached build read %v, want %v\n%s", name, par, read, want, trace)
				}
			}
		}
	}
}
