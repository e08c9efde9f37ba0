package tpch_test

import (
	"math/rand"
	"testing"

	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

func genDB(t testing.TB, nullRate float64, seed int64) *table.Database {
	t.Helper()
	return tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: seed, NullRate: nullRate})
}

func TestGenerateShape(t *testing.T) {
	db := genDB(t, 0, 1)
	for _, want := range []struct {
		rel string
		min int
	}{
		{"region", 5}, {"nation", 25}, {"supplier", 5}, {"part", 20},
		{"customer", 10}, {"orders", 100}, {"lineitem", 100},
	} {
		tab := db.MustTable(want.rel)
		if tab.Len() < want.min {
			t.Errorf("%s: %d rows, want at least %d", want.rel, tab.Len(), want.min)
		}
	}
	if n := db.NullCount(); n != 0 {
		t.Errorf("complete instance has %d nulls", n)
	}
	db2 := genDB(t, 0.05, 2)
	if n := db2.NullCount(); n == 0 {
		t.Error("instance with null rate 0.05 has no nulls")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genDB(t, 0.02, 7)
	b := genDB(t, 0.02, 7)
	for _, rel := range []string{"orders", "lineitem", "customer"} {
		ra, rb := a.MustTable(rel), b.MustTable(rel)
		if ra.Len() != rb.Len() {
			t.Fatalf("%s: lengths differ: %d vs %d", rel, ra.Len(), rb.Len())
		}
		for i := 0; i < ra.Len(); i++ {
			if value.RowKey(ra.Row(i)) != value.RowKey(rb.Row(i)) {
				t.Fatalf("%s: row %d differs", rel, i)
			}
		}
	}
}

// TestQueriesRun parses, compiles, translates and executes all four
// queries on a small instance with nulls, under both the original query
// and its Q⁺ translation, checking the correctness containment
// Q⁺(D) ⊆ Q(D) that the paper observes on all its scenarios (recall
// experiments) — and, more fundamentally, that Q⁺ never returns a
// detected false positive.
func TestQueriesRun(t *testing.T) {
	db := genDB(t, 0.04, 3)
	rng := rand.New(rand.NewSource(42))
	sizes := tpch.Config{ScaleFactor: 0.001}.Sizes()

	for _, qid := range tpch.AllQueries {
		qid := qid
		t.Run(qid.String(), func(t *testing.T) {
			q, err := sql.Parse(qid.SQL())
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			params := qid.Params(rng, sizes)
			compiled, err := compile.Compile(q, db.Schema, params)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			orig, err := eval.New(db, eval.Options{Semantics: value.SQL3VL}).Eval(compiled.Expr)
			if err != nil {
				t.Fatalf("eval original: %v", err)
			}

			tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeSQL, SimplifyNulls: true, SplitOrs: true}
			plus := tr.Plus(compiled.Expr)
			correct, err := eval.New(db, eval.Options{Semantics: value.SQL3VL}).Eval(plus)
			if err != nil {
				t.Fatalf("eval Q+: %v", err)
			}

			// Q⁺ answers must all be answers of Q (the translation only
			// strengthens conditions of this query class).
			origKeys := orig.KeySet()
			for _, r := range correct.Rows() {
				if _, ok := origKeys[value.RowKey(r)]; !ok {
					t.Errorf("Q+ returned %v not in Q's answers", r)
				}
			}

			// No Q⁺ answer may be a detected false positive.
			detect := tpch.DetectorFor(qid)(db, params)
			for _, r := range correct.Rows() {
				if detect(r) {
					t.Errorf("Q+ returned detected false positive %v", r)
				}
			}
			t.Logf("%s: |Q| = %d, |Q+| = %d", qid, orig.Len(), correct.Len())
		})
	}
}

// TestFullQueriesRun runs the aggregate-bearing full forms of the four
// queries in standard mode and checks consistency with the aggregate-
// free forms the experiments use: e.g. Q3's COUNT(*) must equal the
// number of rows the bare form returns.
func TestFullQueriesRun(t *testing.T) {
	db := genDB(t, 0.03, 9)
	rng := rand.New(rand.NewSource(99))
	sizes := tpch.Config{ScaleFactor: 0.001}.Sizes()

	for _, qid := range tpch.AllQueries {
		params := qid.Params(rng, sizes)

		run := func(src string) *table.Table {
			t.Helper()
			q, err := sql.Parse(src)
			if err != nil {
				t.Fatalf("%s: parse: %v", qid, err)
			}
			compiled, err := compile.Compile(q, db.Schema, params)
			if err != nil {
				t.Fatalf("%s: compile: %v", qid, err)
			}
			res, err := eval.New(db, eval.Options{Semantics: value.SQL3VL}).Eval(compiled.Expr)
			if err != nil {
				t.Fatalf("%s: eval: %v", qid, err)
			}
			return res
		}
		bare := run(qid.SQL())
		full := run(qid.FullSQL())

		switch qid {
		case tpch.Q3, tpch.Q4:
			if full.Len() != 1 {
				t.Fatalf("%s full: %d rows", qid, full.Len())
			}
			if got := full.Row(0)[0].AsInt(); got != int64(bare.Len()) {
				t.Errorf("%s: COUNT(*) = %d but bare form has %d rows", qid, got, bare.Len())
			}
		case tpch.Q1:
			// Sum of per-supplier counts equals the bare row count.
			var sum int64
			for _, r := range full.Rows() {
				sum += r[1].AsInt()
			}
			if sum != int64(bare.Len()) {
				t.Errorf("Q1: counts sum to %d, bare form has %d rows", sum, bare.Len())
			}
		case tpch.Q2:
			var sum int64
			for _, r := range full.Rows() {
				sum += r[1].AsInt()
			}
			if sum != int64(bare.Len()) {
				t.Errorf("Q2: counts sum to %d, bare form has %d rows", sum, bare.Len())
			}
		}
	}
}

// TestSizesProportions checks the TPC-H table proportions.
func TestSizesProportions(t *testing.T) {
	sz := tpch.Config{ScaleFactor: 0.01}.Sizes()
	if sz.Orders != sz.Customers*10 {
		t.Errorf("orders = %d, want 10 × customers = %d", sz.Orders, sz.Customers*10)
	}
	if sz.PartSupps != sz.Parts*4 {
		t.Errorf("partsupps = %d, want 4 × parts = %d", sz.PartSupps, sz.Parts*4)
	}
}
