package plan_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/plan"
	"certsql/internal/qgen"
	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/value"
)

// planDB builds a two-relation database: r.a is declared nullable but
// holds no nulls, r.b is a NOT NULL string, s.c is nullable and
// actually holds a null.
func planDB(t *testing.T) *table.Database {
	t.Helper()
	sch := schema.New()
	sch.MustAdd(&schema.Relation{
		Name: "r",
		Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true},
			{Name: "b", Type: value.KindString},
		},
	})
	sch.MustAdd(&schema.Relation{
		Name: "s",
		Attrs: []schema.Attribute{
			{Name: "c", Type: value.KindInt, Nullable: true},
		},
	})
	db := table.NewDatabase(sch)
	for i := int64(0); i < 8; i++ {
		if err := db.Insert("r", table.Row{value.Int(i), value.Str(strings.Repeat("x", int(i%3)+1))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("s", table.Row{value.Int(3)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("s", table.Row{db.FreshNull()}); err != nil {
		t.Fatal(err)
	}
	return db
}

// optimize plans e for the default setting and prices its EXPLAIN tree
// with db's counts, as the facade's EXPLAIN does.
func optimize(e algebra.Expr, db *table.Database) (*plan.Result, error) {
	res, err := plan.Rewrite(e, db.Schema, plan.Physical{}, nil)
	if err != nil {
		return nil, err
	}
	res.Explain = plan.Describe(res.Expr, res.Hints, db.Schema, db)
	return res, nil
}

// TestRuleFamily checks the rule kinds' names, which EXPLAIN's rules:
// line and the golden files print: every kind has one, stable and
// distinct from the others.
func TestRuleFamily(t *testing.T) {
	seen := map[string]bool{}
	for i, k := range plan.RuleKinds {
		name := k.String()
		if name == "" || name == "unknown-rule" {
			t.Errorf("rule %d has no stable name", i)
		}
		if seen[name] {
			t.Errorf("duplicate rule name %q", name)
		}
		seen[name] = true
	}
}

// TestNullTestElimKeepsNullableTest checks that null-test elimination
// rests on the schema alone: r.a is nullable, so a filter on it stays
// although the column holds no nulls today.
func TestNullTestElimKeepsNullableTest(t *testing.T) {
	db := planDB(t)
	if rows, _ := db.MustTable("r").NullRows(0); len(rows) != 0 {
		t.Fatalf("r.a holds %d nulls, want 0", len(rows))
	}
	e := algebra.Select{
		Child: algebra.Base{Name: "r", Cols: 2},
		Cond:  algebra.NullTest{Operand: algebra.Col{Idx: 0}, Negated: true},
	}
	res, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expr.Key() != e.Key() {
		t.Fatalf("filter on a nullable column rewritten to %s", res.Expr.Key())
	}
	for _, k := range res.Fired {
		if k == plan.RuleNullTestElim {
			t.Fatalf("null-test-elim fired on a nullable column; rules: %v", res.Fired)
		}
	}
}

// TestNullTestElimLeavesServedSelect checks that null-test elimination
// leaves a selection the null lists serve as it is: on a null-free
// column σ[a IS NULL](r) reads the column's empty null list.
func TestNullTestElimLeavesServedSelect(t *testing.T) {
	db := planDB(t)
	e := algebra.Select{
		Child: algebra.Base{Name: "r", Cols: 2},
		Cond:  algebra.NullTest{Operand: algebra.Col{Idx: 0}},
	}
	res, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expr.Key() != e.Key() {
		t.Fatalf("served selection rewritten to %s", res.Expr.Key())
	}
	if got := res.ExplainText(); !strings.Contains(got, "{access=nulls(#0)}") || !strings.Contains(got, "scan [r] (rows=0 cost=1)") {
		t.Errorf("EXPLAIN does not price the empty null-list read:\n%s", got)
	}
}

// TestAntiSplitShape checks the anti-split rewrite's output shape on
// L ▷[(θ ∨ ρ) ∧ rest] R: two stacked antijoins over complementary
// selections of R, with the IS NULL disjunction gone from both
// conditions. Neither conjunct carries an extractable equality, so the
// unsplit antijoin would nested-loop and the cost model approves the
// split (L is grown so the quadratic term dominates).
func TestAntiSplitShape(t *testing.T) {
	db := planDB(t)
	for i := int64(8); i < 64; i++ {
		if err := db.Insert("r", table.Row{value.Int(i), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	cond := algebra.NewAnd(
		algebra.NewOr(
			algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
			algebra.NullTest{Operand: algebra.Col{Idx: 2}},
		),
		algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	)
	e := algebra.SemiJoin{L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 1}, Cond: cond, Anti: true}
	// Under naive semantics the lowering keeps every guard, so the plan
	// is the rule's output as it is.
	res, err := plan.Rewrite(e, db.Schema, plan.Physical{Semantics: value.Naive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fired := map[plan.RuleKind]bool{}
	for _, k := range res.Fired {
		fired[k] = true
	}
	if !fired[plan.RuleAntiSplit] {
		t.Fatalf("anti-split did not fire; rules: %v", res.Fired)
	}
	outer, ok := res.Expr.(algebra.SemiJoin)
	if !ok || !outer.Anti {
		t.Fatalf("want outer antijoin, got %T", res.Expr)
	}
	inner, ok := outer.L.(algebra.SemiJoin)
	if !ok || !inner.Anti {
		t.Fatalf("want inner antijoin on L, got %T", outer.L)
	}
	for side, e := range map[string]algebra.Expr{"inner": inner.R, "outer": outer.R} {
		sel, ok := e.(algebra.Select)
		if !ok {
			t.Fatalf("%s right side is %T, want selection over s", side, e)
		}
		if _, ok := sel.Child.(algebra.Base); !ok {
			t.Fatalf("%s selection child is %T, want base", side, sel.Child)
		}
	}
	for _, c := range algebra.Conjuncts(outer.Cond) {
		if or, ok := c.(algebra.Or); ok {
			for _, d := range or.Conds {
				if _, ok := d.(algebra.NullTest); ok {
					t.Fatalf("outer condition still carries an IS NULL disjunct: %v", outer.Cond)
				}
			}
		}
	}
}

// TestAntiSplitCostGate checks the cost gate on the same split: when
// the residual conjunct carries an extractable equality, the runtime
// hashes the unsplit antijoin anyway, so splitting only adds a second
// build pass and the planner must refuse it.
func TestAntiSplitCostGate(t *testing.T) {
	db := planDB(t)
	cond := algebra.NewAnd(
		algebra.NewOr(
			algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
			algebra.NullTest{Operand: algebra.Col{Idx: 2}},
		),
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	)
	e := algebra.SemiJoin{L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 1}, Cond: cond, Anti: true}
	res, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Fired {
		if k == plan.RuleAntiSplit {
			t.Fatalf("anti-split fired on a hash-friendly antijoin; rules: %v\n%s", res.Fired, res.ExplainText())
		}
	}
	if _, ok := res.Expr.(algebra.SemiJoin); !ok {
		t.Fatalf("antijoin shape changed: %T", res.Expr)
	}
}

// TestWildHashStrategy checks the third semijoin strategy: a condition
// whose only link is a unification edge `a = c OR c IS NULL` has no hash
// key, but the executor indexes it, and the model prices it as such —
// far below the nested loop's |L|·|R| — and says so in EXPLAIN. The
// anti-split decision on the same antijoin is the schema's alone: the
// gate prices with the statistics-free defaults, under which the ρ-part
// σ[c IS NULL](s) expects a witness and short-circuits the antijoin, so
// the split fires for a plain and a grouped (minting) left side alike,
// with the same plan whether or not s.c holds a null today.
func TestWildHashStrategy(t *testing.T) {
	grown := func() *table.Database {
		db := planDB(t)
		for i := int64(0); i < 200; i++ {
			if err := db.Insert("s", table.Row{value.Int(i % 50)}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	db, clean := grown(), grown()
	if err := clean.ReplaceRow("s", 1, table.Row{value.Int(4)}); err != nil {
		t.Fatal(err)
	}
	edge := algebra.NewOr(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.NullTest{Operand: algebra.Col{Idx: 2}},
	)
	e := algebra.SemiJoin{L: algebra.Base{Name: "r", Cols: 2}, R: algebra.Base{Name: "s", Cols: 1}, Cond: edge, Anti: true}

	naive := plan.Describe(e, nil, db.Schema, db)
	if text := naive.Render(); !strings.Contains(text, "strategy=wild-hash") {
		t.Fatalf("EXPLAIN does not name the strategy:\n%s", text)
	}
	if nested := 8.0 * 202; naive.EstCost >= nested {
		t.Fatalf("wild-hash antijoin priced at %.4g, not below the nested loop's %.4g", naive.EstCost, nested)
	}

	// A grouped (hence minting) left side: the θ-part goes innermost.
	for _, l := range []algebra.Expr{e.L, algebra.GroupBy{Child: e.L, Keys: []int{0, 1}}} {
		e.L = l
		var plans []string
		for _, d := range []*table.Database{db, clean} {
			res, err := optimize(e, d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(res.Fired, plan.RuleAntiSplit) {
				t.Fatalf("anti-split declined over %s:\n%s", l.Key(), res.ExplainText())
			}
			plans = append(plans, res.Expr.Key())
		}
		if plans[0] != plans[1] {
			t.Fatalf("the plan over %s depends on the data:\n%s\n%s", l.Key(), plans[0], plans[1])
		}
	}
}

// TestSemiHints checks hint derivation on a hash semijoin with a
// numeric key: slim verification, because numeric key encodings are
// exact.
func TestSemiHints(t *testing.T) {
	db := planDB(t)
	e := algebra.SemiJoin{
		L:    algebra.Base{Name: "r", Cols: 2},
		R:    algebra.Base{Name: "s", Cols: 1},
		Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	}
	res, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hints == nil {
		t.Fatal("no hints derived for a keyed semijoin")
	}
	h, ok := res.Hints.Semi[e.Key()]
	if !ok {
		t.Fatalf("no hint under the semijoin's key; hints: %v", res.Hints.Semi)
	}
	if !h.SlimVerify {
		t.Fatalf("hint = %+v, want SlimVerify", h)
	}
}

// TestAuditRejectsTampering checks that the audits actually bite:
// an inconsistent cost tree and an invented predicate atom both fail.
func TestAuditRejectsTampering(t *testing.T) {
	good := &plan.ExplainNode{Op: "select", EstRows: 10, EstCost: 120,
		Children: []*plan.ExplainNode{{Op: "scan", EstRows: 100, EstCost: 101}}}
	if err := plan.AuditCost(good); err != nil {
		t.Fatalf("consistent tree rejected: %v", err)
	}
	cheap := &plan.ExplainNode{Op: "select", EstRows: 10, EstCost: 50,
		Children: []*plan.ExplainNode{{Op: "scan", EstRows: 100, EstCost: 101}}}
	if err := plan.AuditCost(cheap); err == nil {
		t.Fatal("cost below children's sum must fail the audit")
	}
	negative := &plan.ExplainNode{Op: "scan", EstRows: -1, EstCost: 5}
	if err := plan.AuditCost(negative); err == nil {
		t.Fatal("negative estimate must fail the audit")
	}

	orig := algebra.Select{Child: algebra.Base{Name: "r", Cols: 2},
		Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	invented := algebra.Select{Child: algebra.Base{Name: "r", Cols: 2},
		Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	if err := plan.AuditConds(orig, orig); err != nil {
		t.Fatalf("identical plans rejected: %v", err)
	}
	if err := plan.AuditConds(orig, invented); err == nil {
		t.Fatal("an invented atom must fail the audit")
	}
}

// TestOptimizeByteIdentity is the planner's core property, checked
// directly at the eval layer over generated cases: for the compiled
// query and (when translatable) its Q⁺ and Q⋆ translations, evaluating
// the plan rewritten and lowered for a semantics, with its hints,
// renders byte-identical tables to the unoptimized plan under that
// semantics, for both, at P=1 and P=4 — and the audits pass.
func TestOptimizeByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	t.Parallel()
	for seed := uint64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		db, text := qgen.Case(rng, qgen.Tuning{})
		q, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		compiled, err := compile.Compile(q, db.Schema, nil)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		exprs := []algebra.Expr{compiled.Expr}
		if certain.CheckTranslatable(compiled.Expr) == nil {
			tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeSQL,
				SimplifyNulls: true, SplitOrs: true, KeySimplify: true}
			exprs = append(exprs, tr.Plus(compiled.Expr), tr.Star(compiled.Expr))
		}
		for ei, e := range exprs {
			res, err := optimize(e, db)
			if err != nil {
				t.Fatalf("seed %d expr %d: optimize: %v", seed, ei, err)
			}
			if err := plan.AuditCost(res.Explain); err != nil {
				t.Fatalf("seed %d expr %d: %v\n%s", seed, ei, err, res.Explain.Render())
			}
			if err := plan.AuditConds(e, res.Expr); err != nil {
				t.Fatalf("seed %d expr %d: %v", seed, ei, err)
			}
			for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
				res, err := plan.Rewrite(e, db.Schema, plan.Physical{Semantics: sem}, nil)
				if err != nil {
					t.Fatalf("seed %d expr %d: rewrite: %v", seed, ei, err)
				}
				for _, par := range []int{1, 4} {
					naive, nerr := eval.New(db, eval.Options{Semantics: sem, Parallelism: par}).Eval(e)
					opt, oerr := eval.New(db, eval.Options{Semantics: sem, Parallelism: par,
						Hints: res.Hints}).Eval(res.Expr)
					if (nerr == nil) != (oerr == nil) {
						t.Fatalf("seed %d expr %d (%v, P=%d): error mismatch: naive=%v optimized=%v",
							seed, ei, sem, par, nerr, oerr)
					}
					if nerr != nil {
						continue
					}
					if got, want := opt.String(), naive.String(); got != want {
						t.Fatalf("seed %d expr %d (%v, P=%d): planner changes bytes\nquery: %s\nnaive:     %s\noptimized: %s",
							seed, ei, sem, par, text, want, got)
					}
				}
			}
		}
	}
}

// TestExplainDeterministic pins the EXPLAIN rendering contract: two
// optimizations of the same expression render identical text, and the
// header names the fired rules — here null-test-elim, dropping a test
// on the NOT NULL column r.b.
func TestExplainDeterministic(t *testing.T) {
	db := planDB(t)
	e := algebra.Select{
		Child: algebra.Base{Name: "r", Cols: 2},
		Cond:  algebra.NullTest{Operand: algebra.Col{Idx: 1}, Negated: true},
	}
	r1, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := optimize(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if r1.ExplainText() != r2.ExplainText() {
		t.Fatalf("EXPLAIN not deterministic:\n%s\n---\n%s", r1.ExplainText(), r2.ExplainText())
	}
	out := r1.ExplainText()
	for _, want := range []string{"plan (cost=", "rules: null-test-elim", "scan [r]"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, out)
		}
	}
}
