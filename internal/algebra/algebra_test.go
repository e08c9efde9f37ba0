package algebra_test

import (
	"math/rand"
	"strings"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/tvl"
	"certsql/internal/value"
)

// condEval evaluates a condition over a single row through the public
// evaluator, by selecting from a one-row relation.
func condEval(t *testing.T, c algebra.Cond, row table.Row, sem value.Semantics) tvl.TV {
	t.Helper()
	s := schema.New()
	attrs := make([]schema.Attribute, len(row))
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: string(rune('a' + i)), Type: value.KindInt, Nullable: true}
	}
	s.MustAdd(&schema.Relation{Name: "one", Attrs: attrs})
	db := table.NewDatabase(s)
	if err := db.Insert("one", row); err != nil {
		t.Fatal(err)
	}
	res, err := eval.New(db, eval.Options{Semantics: sem}).Eval(algebra.Select{
		Child: algebra.Base{Name: "one", Cols: len(row)},
		Cond:  c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 1 {
		return tvl.True
	}
	// The evaluator does not distinguish false from unknown in output;
	// re-evaluate the negation to tell them apart.
	resNeg, err := eval.New(db, eval.Options{Semantics: sem}).Eval(algebra.Select{
		Child: algebra.Base{Name: "one", Cols: len(row)},
		Cond:  algebra.Not{C: c},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resNeg.Len() == 1 {
		return tvl.False
	}
	return tvl.Unknown
}

func randCond(rng *rand.Rand, n, depth int) algebra.Cond {
	if depth > 0 && rng.Float64() < 0.5 {
		switch rng.Intn(3) {
		case 0:
			return algebra.NewAnd(randCond(rng, n, depth-1), randCond(rng, n, depth-1))
		case 1:
			return algebra.NewOr(randCond(rng, n, depth-1), randCond(rng, n, depth-1))
		default:
			return algebra.Not{C: randCond(rng, n, depth-1)}
		}
	}
	col := algebra.Col{Idx: rng.Intn(n)}
	ops := []algebra.CmpOp{algebra.EQ, algebra.NE, algebra.LT, algebra.LE, algebra.GT, algebra.GE}
	switch rng.Intn(3) {
	case 0:
		return algebra.Cmp{Op: ops[rng.Intn(6)], L: col, R: algebra.Col{Idx: rng.Intn(n)}}
	case 1:
		return algebra.Cmp{Op: ops[rng.Intn(6)], L: col, R: algebra.Lit{Val: value.Int(int64(rng.Intn(3)))}}
	default:
		return algebra.NullTest{Operand: col, Negated: rng.Intn(2) == 0}
	}
}

func randRow(rng *rand.Rand, n int) table.Row {
	row := make(table.Row, n)
	for i := range row {
		if rng.Float64() < 0.3 {
			row[i] = value.Null(int64(rng.Intn(2) + 1))
		} else {
			row[i] = value.Int(int64(rng.Intn(3)))
		}
	}
	return row
}

// TestNNFPreservesSemantics: NNF(c) evaluates identically to c on random
// rows, under both semantics — the property the paper's condition
// language relies on ("conditions are closed under negation, which can
// simply be propagated to atoms").
func TestNNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(2)
		c := randCond(rng, n, 3)
		nnf := algebra.NNF(c)
		// No Not nodes may remain.
		assertNoNot(t, nnf)
		row := randRow(rng, n)
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			if got, want := condEval(t, nnf, row, sem), condEval(t, c, row, sem); got != want {
				t.Fatalf("NNF changed semantics (%v) on %v:\n%s\n-> %s\ngot %v want %v",
					sem, row, c, nnf, got, want)
			}
		}
	}
}

// TestDNFPreservesSemantics: DNF(NNF(c)) evaluates identically to c.
func TestDNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		n := 2 + rng.Intn(2)
		c := randCond(rng, n, 3)
		dnf := algebra.DNF(algebra.NNF(c))
		assertDNFShape(t, dnf)
		row := randRow(rng, n)
		for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			if got, want := condEval(t, dnf, row, sem), condEval(t, c, row, sem); got != want {
				t.Fatalf("DNF changed semantics (%v) on %v:\n%s\n-> %s", sem, row, c, dnf)
			}
		}
	}
}

func assertNoNot(t *testing.T, c algebra.Cond) {
	t.Helper()
	switch c := c.(type) {
	case algebra.Not:
		t.Fatalf("NNF left a Not node: %s", c)
	case algebra.And:
		for _, sub := range c.Conds {
			assertNoNot(t, sub)
		}
	case algebra.Or:
		for _, sub := range c.Conds {
			assertNoNot(t, sub)
		}
	}
}

func assertDNFShape(t *testing.T, c algebra.Cond) {
	t.Helper()
	for _, d := range algebra.Disjuncts(c) {
		for _, conj := range algebra.Conjuncts(d) {
			switch conj.(type) {
			case algebra.And, algebra.Or, algebra.Not:
				t.Fatalf("not in DNF: %s", c)
			}
		}
	}
}

func TestDNFPanicsOnNonNNF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DNF accepted a Not node")
		}
	}()
	algebra.DNF(algebra.Not{C: algebra.TrueCond{}})
}

func TestCondConstructorsSimplify(t *testing.T) {
	tr, fa := algebra.TrueCond{}, algebra.FalseCond{}
	atom := algebra.NullTest{Operand: algebra.Col{Idx: 0}}
	if _, ok := algebra.NewAnd(tr, tr).(algebra.TrueCond); !ok {
		t.Error("AND of trues")
	}
	if _, ok := algebra.NewAnd(atom, fa).(algebra.FalseCond); !ok {
		t.Error("AND with false")
	}
	if _, ok := algebra.NewOr(fa, fa).(algebra.FalseCond); !ok {
		t.Error("OR of falses")
	}
	if _, ok := algebra.NewOr(atom, tr).(algebra.TrueCond); !ok {
		t.Error("OR with true")
	}
	if got := algebra.NewAnd(atom); got != algebra.Cond(atom) {
		t.Error("singleton AND")
	}
	// Nested constructors flatten.
	nested := algebra.NewAnd(algebra.NewAnd(atom, atom), atom)
	if len(algebra.Conjuncts(nested)) != 3 {
		t.Errorf("flattening: %s", nested)
	}
}

func TestMapColsAndColsUsed(t *testing.T) {
	c := algebra.NewAnd(
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 3}},
		algebra.NewOr(
			algebra.NullTest{Operand: algebra.Col{Idx: 5}},
			algebra.Like{Operand: algebra.Col{Idx: 3}, Pattern: algebra.Lit{Val: value.Str("%")}},
		),
		algebra.Not{C: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 1}, R: algebra.Lit{Val: value.Int(2)}}},
	)
	used := algebra.ColsUsed(c)
	want := []int{0, 1, 3, 5}
	if len(used) != len(want) {
		t.Fatalf("ColsUsed = %v", used)
	}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("ColsUsed = %v, want %v", used, want)
		}
	}
	shifted := algebra.MapCols(c, func(i int) int { return i + 10 })
	usedShifted := algebra.ColsUsed(shifted)
	for i := range want {
		if usedShifted[i] != want[i]+10 {
			t.Fatalf("MapCols: ColsUsed = %v", usedShifted)
		}
	}
}

func TestCmpOpHelpers(t *testing.T) {
	pairs := map[algebra.CmpOp]algebra.CmpOp{
		algebra.EQ: algebra.NE, algebra.LT: algebra.GE, algebra.LE: algebra.GT,
	}
	for op, neg := range pairs {
		if op.Negate() != neg || neg.Negate() != op {
			t.Errorf("Negate(%v)", op)
		}
	}
	flips := map[algebra.CmpOp]algebra.CmpOp{
		algebra.EQ: algebra.EQ, algebra.NE: algebra.NE,
		algebra.LT: algebra.GT, algebra.LE: algebra.GE,
	}
	for op, f := range flips {
		if op.Flip() != f {
			t.Errorf("Flip(%v) = %v", op, op.Flip())
		}
	}
}

func TestExprKeysAndArity(t *testing.T) {
	r := algebra.Base{Name: "r", Cols: 2}
	s := algebra.Base{Name: "s", Cols: 2}
	exprs := []struct {
		e     algebra.Expr
		arity int
		key   string
	}{
		{r, 2, "r"},
		{algebra.Product{L: r, R: s}, 4, "(r × s)"},
		{algebra.Project{Child: r, Cols: []int{1}}, 1, "π[1](r)"},
		{algebra.Union{L: r, R: s}, 2, "(r ∪ s)"},
		{algebra.Diff{L: r, R: s}, 2, "(r − s)"},
		{algebra.Intersect{L: r, R: s}, 2, "(r ∩ s)"},
		{algebra.UnifySemi{L: r, R: s, Anti: true}, 2, "(r ▷⇑ s)"},
		{algebra.Distinct{Child: r}, 2, "δ(r)"},
		{algebra.AdomPower{K: 3}, 3, "adom^3"},
	}
	for _, c := range exprs {
		if c.e.Arity() != c.arity {
			t.Errorf("%s: arity %d, want %d", c.key, c.e.Arity(), c.arity)
		}
		if c.e.Key() != c.key {
			t.Errorf("Key() = %q, want %q", c.e.Key(), c.key)
		}
	}
	// Structurally equal expressions share keys; different ones do not.
	a := algebra.Select{Child: r, Cond: algebra.TrueCond{}}
	b := algebra.Select{Child: r, Cond: algebra.TrueCond{}}
	if a.Key() != b.Key() {
		t.Error("equal plans with different keys")
	}
	cDiff := algebra.Select{Child: s, Cond: algebra.TrueCond{}}
	if a.Key() == cDiff.Key() {
		t.Error("different plans share a key")
	}
}

func TestWalkAndConds(t *testing.T) {
	r := algebra.Base{Name: "r", Cols: 2}
	inner := algebra.Select{Child: r, Cond: algebra.TrueCond{}}
	scalar := algebra.Scalar{Sub: inner, Agg: algebra.AggAvg, Col: 0}
	e := algebra.Select{
		Child: algebra.SemiJoin{L: r, R: r, Cond: algebra.FalseCond{}, Anti: true},
		Cond:  algebra.Cmp{Op: algebra.GT, L: algebra.Col{Idx: 0}, R: scalar},
	}
	count := 0
	algebra.Walk(e, func(algebra.Expr) { count++ })
	// e, the scalar's subquery (select + r), semijoin, r, r = 6 nodes.
	if count != 6 {
		t.Errorf("Walk visited %d nodes, want 6", count)
	}
	conds := algebra.Conds(e)
	if len(conds) != 3 { // outer select cond, semijoin cond, scalar's select cond
		t.Errorf("Conds found %d, want 3: %v", len(conds), conds)
	}
	if !strings.Contains(algebra.Format(e), "AntiJoin") {
		t.Errorf("Format misses AntiJoin:\n%s", algebra.Format(e))
	}
}

func TestAggAndStringers(t *testing.T) {
	if algebra.AggAvg.String() != "AVG" || algebra.AggCount.String() != "COUNT" {
		t.Error("AggFunc names")
	}
	c := algebra.Like{Operand: algebra.Col{Idx: 1}, Pattern: algebra.Lit{Val: value.Str("x%")}, Negated: true}
	if c.String() != "#1 NOT LIKE 'x%'" {
		t.Errorf("Like.String = %q", c.String())
	}
	nt := algebra.NullTest{Operand: algebra.Col{Idx: 0}, Negated: true}
	if nt.String() != "const(#0)" {
		t.Errorf("NullTest.String = %q", nt.String())
	}
}

func TestDecisionSupportOperatorBasics(t *testing.T) {
	r := algebra.Base{Name: "r", Cols: 2}
	gb := algebra.GroupBy{Child: r, Keys: []int{0}, Aggs: []algebra.AggSpec{
		{Func: algebra.AggCount, Col: -1},
		{Func: algebra.AggAvg, Col: 1},
	}}
	if gb.Arity() != 3 {
		t.Errorf("GroupBy arity %d", gb.Arity())
	}
	if gb.Key() != "γ[0;COUNT(*),AVG(#1)](r)" {
		t.Errorf("GroupBy key %q", gb.Key())
	}
	srt := algebra.Sort{Child: gb, Keys: []algebra.SortKey{{Col: 1, Desc: true}, {Col: 0}}}
	if srt.Arity() != 3 || srt.Key() != "sort[1 desc,0 asc](γ[0;COUNT(*),AVG(#1)](r))" {
		t.Errorf("Sort key %q", srt.Key())
	}
	lim := algebra.Limit{Child: srt, N: 5}
	if lim.Arity() != 3 || lim.Key() != "limit[5](sort[1 desc,0 asc](γ[0;COUNT(*),AVG(#1)](r)))" {
		t.Errorf("Limit key %q", lim.Key())
	}
	div := algebra.Division{L: r, R: algebra.Project{Child: r, Cols: []int{1}}}
	if div.Arity() != 1 || div.Key() != "(r ÷ π[1](r))" {
		t.Errorf("Division key %q, arity %d", div.Key(), div.Arity())
	}

	// Children and Format cover the new operators.
	for _, e := range []algebra.Expr{gb, srt, lim, div} {
		if _, n := algebra.Children(e); n == 0 {
			t.Errorf("%T has no children", e)
		}
		if algebra.Format(e) == "" {
			t.Errorf("%T formats empty", e)
		}
	}
	count := 0
	algebra.Walk(lim, func(algebra.Expr) { count++ })
	if count != 4 { // limit, sort, groupby, r
		t.Errorf("Walk visited %d nodes, want 4", count)
	}
}
