package algebra_test

import (
	"fmt"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/qgen"
	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/tpch"
)

// plusPlan compiles a TPC-H query and returns its Q⁺ under the default
// translation (SQL conditions, null-test simplification, OR-splitting
// and key simplification), or under naive conditions.
func plusPlan(t testing.TB, qid tpch.QueryID, naive bool) algebra.Expr {
	t.Helper()
	sch := tpch.Schema()
	params := qid.Params(rand.New(rand.NewSource(11)), tpch.Config{ScaleFactor: 0.001}.Sizes())
	mode := certain.ModeSQL
	if naive {
		mode = certain.ModeNaive
	}
	tr := &certain.Translator{Sch: sch, Mode: mode, SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
	return tr.Plus(compilePlan(t, qid.SQL(), sch, params))
}

func compilePlan(t testing.TB, text string, sch *schema.Schema, params compile.Params) algebra.Expr {
	t.Helper()
	q, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := compile.Compile(q, sch, params)
	if err != nil {
		t.Fatal(err)
	}
	return compiled.Expr
}

// traversalCorpus is Q⁺1–Q⁺4 under both translations, followed by
// qgen-generated queries with their Q⁺ and Q⋆ where translatable.
func traversalCorpus(t *testing.T) map[string]algebra.Expr {
	t.Helper()
	plans := map[string]algebra.Expr{}
	for _, qid := range tpch.AllQueries {
		plans[qid.String()+"+/sql"] = plusPlan(t, qid, false)
		plans[qid.String()+"+/naive"] = plusPlan(t, qid, true)
	}
	for seed := int64(1); seed <= 150; seed++ {
		db, text := qgen.Case(rand.New(rand.NewSource(seed)), qgen.Tuning{})
		e := compilePlan(t, text, db.Schema, nil)
		name := fmt.Sprintf("qgen-%d", seed)
		plans[name] = e
		if certain.CheckTranslatable(e) == nil {
			tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeSQL,
				SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
			plans[name+"+"] = tr.Plus(e)
			plans[name+"⋆"] = tr.Star(e)
		}
	}
	return plans
}

// TestTraversalAllocationFree: walking a plan and sizing it for the view
// cache run on every execution, so neither may allocate.
func TestTraversalAllocationFree(t *testing.T) {
	plan := plusPlan(t, tpch.Q4, false)
	nodes := 0
	if n := testing.AllocsPerRun(50, func() {
		algebra.Walk(plan, func(algebra.Expr) { nodes++ })
	}); n != 0 {
		t.Errorf("Walk over Q⁺4: %v allocations, want 0", n)
	}
	if nodes == 0 {
		t.Fatal("Walk visited nothing")
	}
	if n := testing.AllocsPerRun(50, func() {
		algebra.Walk(plan, func(e algebra.Expr) { algebra.SizeAtMost(e, 24) })
	}); n != 0 {
		t.Errorf("SizeAtMost over Q⁺4's subtrees: %v allocations, want 0", n)
	}
}

// TestRebuildAndOperands checks the traversal primitives on every node
// of the corpus: rebuilding a node from its own children reproduces
// its key, and HasScalar holds exactly when some operand of the
// node's condition is a scalar subquery.
func TestRebuildAndOperands(t *testing.T) {
	var nodes, scalars, plain int
	for name, plan := range traversalCorpus(t) {
		algebra.Walk(plan, func(e algebra.Expr) {
			nodes++
			if got := algebra.MapChildren(e, func(c algebra.Expr) algebra.Expr { return c }).Key(); got != e.Key() {
				t.Errorf("%s: rebuilt %T has key %q, want %q", name, e, got, e.Key())
			}
		})
		for _, c := range algebra.Conds(plan) {
			// The rendering changes iff replacing the scalar operands
			// replaced something.
			want := algebra.MapOperands(c, func(o algebra.Operand) algebra.Operand {
				if _, ok := o.(algebra.Scalar); ok {
					return algebra.Col{Idx: -1}
				}
				return o
			}).String() != c.String()
			if got := algebra.HasScalar(c); got != want {
				t.Errorf("%s: HasScalar(%s) = %v, want %v", name, c, got, want)
			}
			if want {
				scalars++
			} else {
				plain++
			}
		}
	}
	if nodes == 0 || scalars == 0 || plain == 0 {
		t.Fatalf("corpus too thin: %d nodes, %d conditions with a scalar, %d without", nodes, scalars, plain)
	}
}
