package difftest

import (
	"math"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// TestOracleClean: the pipeline passes the oracle on a seed range. Any
// failure here is a real bug in the pipeline (or the oracle) and comes
// with a seed to reproduce it.
func TestOracleClean(t *testing.T) {
	sum := Run(1, 150, 0, Options{}, nil)
	if sum.Failed > 0 {
		for _, rep := range sum.Failures {
			t.Error(rep.Summary())
		}
		t.Fatalf("%d of %d cases violated invariants", sum.Failed, sum.Cases)
	}
	if sum.Translatable == 0 || sum.BruteForced == 0 {
		t.Fatalf("oracle exercised nothing: %+v", sum)
	}
	// The reference invariant skips what it cannot decide (LIMIT, the
	// work cap); an oracle that skipped its way to green is not one.
	for _, label := range []string{"Q/sql3vl", "Q/naive"} {
		if ran := sum.Reference[label]; ran*10 < sum.Cases*9 {
			t.Errorf("reference check %s compared only %d of %d cases", label, ran, sum.Cases)
		}
	}
	for _, label := range []string{"Q⁺/sql3vl", "Q⁺/naive", "Q⋆/sql3vl", "Q⋆/naive"} {
		if ran := sum.Reference[label]; ran != sum.Translatable {
			t.Errorf("reference check %s compared %d of %d translatable cases", label, ran, sum.Translatable)
		}
	}
	// The lowering invariant is idle unless the lowering changed some
	// plan it compared: Q⁺'s guards beside a comparison under SQL3VL.
	if sum.Lowered["Q⁺/sql3vl"] == 0 {
		t.Errorf("the lowering invariant compared no plan the lowering changed: %v", sum.Lowered)
	}
}

func totalRows(db *table.Database) int {
	n := 0
	for _, name := range db.Schema.Names() {
		n += db.MustTable(name).Len()
	}
	return n
}

// falsePositivePred holds on cases where plain SQL evaluation returns a
// non-certain answer — the paper's headline phenomenon. It plays the
// role of an injected bug for exercising the minimizer end to end: the
// "buggy pipeline" is standard evaluation posing as certain-answer
// evaluation.
func falsePositivePred(db *table.Database, text string) bool {
	q, err := sql.Parse(text)
	if err != nil {
		return false
	}
	compiled, err := compile.Compile(q, db.Schema, nil)
	if err != nil {
		return false
	}
	if certain.CheckTranslatable(compiled.Expr) != nil {
		return false
	}
	std, err := eval.New(db, eval.Options{Parallelism: 1}).Eval(compiled.Expr)
	if err != nil {
		return false
	}
	cert, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{})
	if err != nil {
		return false
	}
	_, allCertain := firstExtra(std, cert)
	return !allCertain
}

// TestMinimizeShrinksFalsePositiveCase finds a generated case where
// standard evaluation has false positives and shrinks it to the
// acceptance bound: at most 3 rows over at most 2 relations.
func TestMinimizeShrinksFalsePositiveCase(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rep := CheckSeed(seed, Options{})
		if rep.Failed() {
			t.Fatal(rep.Summary())
		}
		if !falsePositivePred(rep.DB, rep.SQL) {
			continue
		}
		db, text := Minimize(rep.DB, rep.SQL, falsePositivePred)
		if !falsePositivePred(db, text) {
			t.Fatalf("minimization lost the failure\nquery: %s", text)
		}
		if rows := totalRows(db); rows > 3 {
			t.Errorf("shrunken case has %d rows, want <= 3\nquery: %s", rows, text)
		}
		if rels := len(db.Schema.Names()); rels > 2 {
			t.Errorf("shrunken case has %d relations, want <= 2\nquery: %s", rels, text)
		}
		if len(text) >= len(rep.SQL) && totalRows(db) >= totalRows(rep.DB) {
			t.Errorf("minimizer made no progress:\nbefore: %s\nafter:  %s", rep.SQL, text)
		}
		t.Logf("seed %d shrank to %d rows, %d relations: %s",
			seed, totalRows(db), len(db.Schema.Names()), text)
		return
	}
	t.Fatal("no generated case with standard-evaluation false positives in 300 seeds")
}

// TestMinimizeRespectsContracts: the minimizer must not shrink into a
// database that breaks the pipeline's preconditions (here: a duplicate
// primary key), even when a predicate would accept it.
func TestMinimizeRespectsContracts(t *testing.T) {
	rep := CheckSeed(1, Options{})
	greedy := func(db *table.Database, text string) bool { return !contractsHold(db) }
	db, _ := Minimize(rep.DB, rep.SQL, greedy)
	if !contractsHold(db) {
		t.Fatal("minimizer produced a contract-breaking database")
	}
}

// TestGoReproShape: the emitted repro is a complete test function that
// rebuilds the database values and query verbatim.
func TestGoReproShape(t *testing.T) {
	rep := CheckSeed(3, Options{})
	src := GoRepro("Sample", rep.DB, rep.SQL)
	for _, want := range []string{
		"func TestReproSample(t *testing.T)",
		"schema.New()",
		"table.NewDatabase(sch)",
		"difftest.Check(db, ",
		"rep.Failed()",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("repro missing %q:\n%s", want, src)
		}
	}
	if rep.DB.NullCount() > 0 && !strings.Contains(src, "value.Null(") {
		t.Errorf("repro lost the null marks:\n%s", src)
	}
}

// TestCheckInvalidText: arbitrary strings are skips by default and
// violations under RequireValid.
func TestCheckInvalidText(t *testing.T) {
	rep := CheckSeed(1, Options{})
	if r := Check(rep.DB, "NOT SQL AT ALL", Options{}); r.Failed() {
		t.Fatalf("arbitrary text must skip, got %s", r.Summary())
	}
	if r := Check(rep.DB, "NOT SQL AT ALL", Options{RequireValid: true}); !r.Has("parse") {
		t.Fatalf("RequireValid must flag a parse violation, got %s", r.Summary())
	}
}

// TestSetOpCertainForcing: QueryCertain on a set-operation query must
// actually evaluate the translation (regression for the facade ignoring
// the flags on non-SelectStmt bodies).
func TestSetOpCertainForcing(t *testing.T) {
	text, err := certsql.WithMode("SELECT a FROM r0 EXCEPT SELECT a FROM r0", "certain")
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if op, ok := q.Body.(sql.SetOp); !ok || !op.L.(*sql.SelectStmt).Certain {
		t.Fatalf("CERTAIN flag not set on a set-op body: %s", text)
	}
}

func TestValueLit(t *testing.T) {
	for _, tc := range []struct {
		v    value.Value
		want string
	}{
		{value.Int(-7), "value.Int(-7)"},
		{value.Float(0.5), "value.Float(0.5)"},
		{value.Float(0), "value.Float(0)"},
		{value.Float(math.Copysign(0, -1)), "value.Float(math.Copysign(0, -1))"},
		{value.Str("a'b"), `value.Str("a'b")`},
		{value.Bool(true), "value.Bool(true)"},
		{value.Null(12), "value.Null(12)"},
	} {
		if got := valueLit(tc.v); got != tc.want {
			t.Errorf("valueLit(%s) = %s, want %s", tc.v, got, tc.want)
		}
	}
}
