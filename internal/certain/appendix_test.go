package certain_test

import (
	"strings"
	"testing"

	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/rewrite"
	"certsql/internal/sql"
	"certsql/internal/tpch"
)

// These tests regenerate the paper's appendix: translating Q1–Q4 must
// produce SQL with the appendix queries' structure. They lock in the
// three ingredients the appendix shapes depend on — the SQL-adjusted
// θ**, the nullability simplification, and the selective OR-split.

func rewriteQuery(t *testing.T, qid tpch.QueryID, params compile.Params) string {
	t.Helper()
	sch := tpch.Schema()
	q, err := sql.Parse(qid.SQL())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := compile.Compile(q, sch, params)
	if err != nil {
		t.Fatal(err)
	}
	tr := &certain.Translator{Sch: sch, Mode: certain.ModeSQL, SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
	out, err := rewrite.ToSQL(tr.Plus(compiled.Expr), sch)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendixQ1(t *testing.T) {
	out := rewriteQuery(t, tpch.Q1, compile.Params{"nation": "FRANCE"})

	// The appendix Q⁺1 keeps one EXISTS and one NOT EXISTS; the NOT
	// EXISTS condition is weakened with the three IS NULL disjuncts.
	if n := strings.Count(out, "NOT EXISTS"); n != 1 {
		t.Errorf("Q+1 has %d NOT EXISTS, want 1 (paper does not split Q1)\n%s", n, out)
	}
	if n := strings.Count(out, "EXISTS"); n != 2 { // one EXISTS + one NOT EXISTS
		t.Errorf("Q+1 has %d EXISTS-like, want 2\n%s", n, out)
	}
	for _, want := range []string{"l_suppkey IS NULL", "l_receiptdate IS NULL", "l_commitdate IS NULL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Q+1 misses the %q disjunct\n%s", want, out)
		}
	}
	// Keys cannot be null: no disjunct may be introduced on them.
	for _, wrong := range []string{"l_orderkey IS NULL", "o_orderkey IS NULL", "s_suppkey IS NULL", "n_nationkey IS NULL"} {
		if strings.Contains(out, wrong) {
			t.Errorf("Q+1 contains spurious %q (nullability simplification failed)\n%s", wrong, out)
		}
	}
	// The positive EXISTS subquery keeps its original (strengthened)
	// condition: no IS NULL disjuncts in it. Locate the EXISTS block.
	exists := out[strings.Index(out, "EXISTS"):]
	notExists := exists[strings.Index(exists, "NOT EXISTS"):]
	existsOnly := exists[:len(exists)-len(notExists)]
	if strings.Contains(existsOnly, "IS NULL") {
		t.Errorf("the positive EXISTS subquery acquired IS NULL disjuncts\n%s", existsOnly)
	}
}

func TestAppendixQ2(t *testing.T) {
	out := rewriteQuery(t, tpch.Q2, compile.Params{"countries": []int64{0, 1, 2, 3, 4, 5, 6}})

	// The appendix Q⁺2 has exactly two NOT EXISTS: the original
	// correlated one and the decorrelated o_custkey IS NULL test.
	if n := strings.Count(out, "NOT EXISTS"); n != 2 {
		t.Errorf("Q+2 has %d NOT EXISTS, want 2\n%s", n, out)
	}
	if !strings.Contains(out, "o_custkey IS NULL") {
		t.Errorf("Q+2 misses the decorrelated o_custkey IS NULL branch\n%s", out)
	}
	// The decorrelated branch must not be correlated with customer.
	idx := strings.Index(out, "o_custkey IS NULL")
	branch := out[strings.LastIndex(out[:idx], "NOT EXISTS"):idx]
	if strings.Contains(branch, "c_custkey") {
		t.Errorf("the IS NULL branch is still correlated\n%s", branch)
	}
}

func TestAppendixQ3(t *testing.T) {
	out := rewriteQuery(t, tpch.Q3, compile.Params{"supp_key": int64(3)})

	if n := strings.Count(out, "NOT EXISTS"); n != 1 {
		t.Errorf("Q+3 has %d NOT EXISTS, want 1\n%s", n, out)
	}
	if !strings.Contains(out, "l_suppkey <> 3") || !strings.Contains(out, "l_suppkey IS NULL") {
		t.Errorf("Q+3 misses the weakened condition (l_suppkey <> 3 OR l_suppkey IS NULL)\n%s", out)
	}
	if strings.Contains(out, "l_orderkey IS NULL") || strings.Contains(out, "o_orderkey IS NULL") {
		t.Errorf("Q+3 contains a spurious key IS NULL disjunct\n%s", out)
	}
}

func TestAppendixQ4(t *testing.T) {
	out := rewriteQuery(t, tpch.Q4, compile.Params{"color": "azure", "nation": "FRANCE"})

	// The split distributes the two disjunctions on lineitem, the
	// relation the subquery is correlated through (l_partkey,
	// l_suppkey), giving the appendix's 2×2 = 4 branches.
	if n := strings.Count(out, "NOT EXISTS"); n != 4 {
		t.Errorf("Q+4 has %d NOT EXISTS branches, want 4\n%s", n, out)
	}
	// Branches where a side is disconnected must carry bare existence
	// tests (the appendix's `AND EXISTS ( SELECT * FROM part_view )`).
	if n := strings.Count(out, "EXISTS"); n-strings.Count(out, "NOT EXISTS") < 2 {
		t.Errorf("Q+4 has too few nested existence tests\n%s", out)
	}
	// The supplier–nation disjunction is not split: it appears once per
	// branch, inside a body that joins supplier with nation (the
	// appendix's supp_view), never as a branch filter of its own.
	if n := strings.Count(out, "s_nationkey IS NULL"); n != 4 {
		t.Errorf("Q+4 has %d s_nationkey IS NULL, want one per branch\n%s", n, out)
	}
	for _, sel := range strings.Split(out, "SELECT * FROM ")[1:] {
		from := sel[:strings.Index(sel, " WHERE ")]
		joinsBoth := strings.Contains(from, "supplier ") && strings.Contains(from, "nation ")
		// A body's own text ends where its first nested subquery starts.
		if own := strings.SplitN(sel, "EXISTS", 2)[0]; strings.Contains(own, "s_nationkey IS NULL") != joinsBoth {
			t.Errorf("s_nationkey IS NULL must sit exactly in the supplier–nation bodies, got\n%s", own)
		}
	}
	// The single-table disjunctions survive as filters (the view
	// bodies): p_name LIKE … OR p_name IS NULL, n_name = … OR IS NULL.
	if !strings.Contains(out, "p_name IS NULL") {
		t.Errorf("Q+4 misses the p_name IS NULL filter disjunct\n%s", out)
	}
	if !strings.Contains(out, "n_name IS NULL") {
		t.Errorf("Q+4 misses the n_name IS NULL filter disjunct\n%s", out)
	}
	for _, wrong := range []string{"p_partkey IS NULL", "s_suppkey IS NULL", "n_nationkey IS NULL", "l_orderkey IS NULL"} {
		if strings.Contains(out, wrong) {
			t.Errorf("Q+4 contains spurious %q on a key column\n%s", wrong, out)
		}
	}
	// Branch cases: null lineitem part/supp keys appear as filters.
	if !strings.Contains(out, "l_partkey IS NULL") || !strings.Contains(out, "l_suppkey IS NULL") {
		t.Errorf("Q+4 misses the l_partkey/l_suppkey IS NULL branch filters\n%s", out)
	}
}
