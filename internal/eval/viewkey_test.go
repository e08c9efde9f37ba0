package eval_test

import (
	"fmt"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/plan"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// TestViewKeyedSubtrees pins how many subtrees of the plans Q⁺1–Q⁺4
// run, under both translations each lowered for its semantics
// (plan.Lower), are small enough to get a view-cache key. The counts
// move only when the translation, the lowering or the view cache's size
// budget does.
func TestViewKeyedSubtrees(t *testing.T) {
	db := table.NewDatabase(tpch.Schema())
	want := map[string]int{
		"Q1/naive=false": 12, "Q1/naive=true": 12,
		"Q2/naive=false": 8, "Q2/naive=true": 8,
		"Q3/naive=false": 5, "Q3/naive=true": 5,
		"Q4/naive=false": 37, "Q4/naive=true": 37,
	}
	for _, qid := range tpch.AllQueries {
		for _, naive := range []bool{false, true} {
			_, plus, _ := prepareQuery(t, db, qid, naive)
			sem := value.SQL3VL
			if naive {
				sem = value.Naive
			}
			keyed, total := 0, 0
			algebra.Walk(plan.Lower(plus, plan.Physical{Semantics: sem}).Expr, func(e algebra.Expr) {
				total++
				if eval.ViewKey(e) != "" {
					keyed++
				}
			})
			name := fmt.Sprintf("%s/naive=%v", qid, naive)
			t.Logf("%s: %d of %d subtrees keyed", name, keyed, total)
			if w, ok := want[name]; !ok || keyed != w {
				t.Errorf("%s: %d subtrees get a view key, want %d", name, keyed, w)
			}
		}
	}
}
