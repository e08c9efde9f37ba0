package eval_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// joinStepsDB draws relations a (1 100 rows), b (30), c (8) and m
// (150), each (k, k2, v). Keys come from small per-column pools as ints
// or as the equal floats, and about one value in twelve is a marked null
// from a pool of three marks, so under SQL3VL null keys find nothing and
// under naive evaluation they join by mark.
func joinStepsDB(t *testing.T) *table.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	s := schema.New()
	rels := []struct {
		name  string
		rows  int
		pools [3]int // k, k2, v
	}{{"a", 1100, [3]int{30, 3, 4}}, {"b", 30, [3]int{30, 3, 4}}, {"c", 8, [3]int{3, 2, 4}}, {"m", 150, [3]int{30, 2, 4}}}
	for _, r := range rels {
		s.MustAdd(&schema.Relation{Name: r.name, Attrs: []schema.Attribute{
			{Name: "k", Type: value.KindInt, Nullable: true},
			{Name: "k2", Type: value.KindInt, Nullable: true},
			{Name: "v", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	draw := func(pool int) value.Value {
		switch k := rng.Intn(pool); rng.Intn(12) {
		case 0:
			return value.Null(1 + rng.Int63n(3))
		case 1, 2:
			return value.Float(float64(k))
		default:
			return value.Int(int64(k))
		}
	}
	for _, r := range rels {
		for i := 0; i < r.rows; i++ {
			if err := db.Insert(r.name, table.Row{draw(r.pools[0]), draw(r.pools[1]), draw(r.pools[2])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestJoinBlockSteps pins every kind of join-block step exactly: the
// rows, in order (as a digest), and the cost units and strategy counters
// recorded before the steps carried leaf row positions instead of
// concatenated rows. Each case runs under both semantics at Parallelism
// 1 and 4 and must also return the NoHashJoin route's rows as a bag.
// With JoinBlock.Order every edge is a key of the hash step that joins
// its second leaf, so the cycle's closing edge is that step's second key.
func TestJoinBlockSteps(t *testing.T) {
	db := joinStepsDB(t)
	base := func(name string) algebra.Expr { return algebra.Base{Name: name, Cols: 3} }
	col := func(i int) algebra.Col { return algebra.Col{Idx: i} }
	eq := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.EQ, L: col(a), R: col(b)} }
	ne := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.NE, L: col(a), R: col(b)} }
	lt := func(a, b int) algebra.Cond { return algebra.Cmp{Op: algebra.LT, L: col(a), R: col(b)} }
	unify := func(a, b int) algebra.Cond {
		return algebra.Or{Conds: []algebra.Cond{eq(a, b), algebra.NullTest{Operand: col(a)}, algebra.NullTest{Operand: col(b)}}}
	}
	block := func(cond algebra.Cond, names ...string) algebra.Expr {
		e := base(names[0])
		for _, n := range names[1:] {
			e = algebra.Product{L: e, R: base(n)}
		}
		return algebra.Select{Child: e, Cond: cond}
	}
	maxC := algebra.Scalar{Sub: base("c"), Agg: algebra.AggMax, Col: 2}
	// Canonical columns: a, b, c by position in the block; m × b × c is
	// m #0-#2, b #3-#5, c #6-#8.
	type want struct {
		digest                     uint64
		cost                       int64
		hash, nested, unifications int
	}
	cases := []struct {
		name string
		e    algebra.Expr
		want [2]want // SQL3VL, Naive
	}{
		// Start at b, index it (the smaller side) and stream a.
		{"hash/build-cur", block(eq(0, 3), "a", "b"), [2]want{{0x683c49d7d4c45cb, 3135, 1, 0, 0}, {0x1356ce67093c9265, 3309, 1, 0, 0}}},
		// c ⋈ m builds on c; its 560 tuples then probe an index of b.
		{"hash/build-leaf", block(algebra.NewAnd(eq(1, 7), eq(0, 3)), "m", "b", "c"), [2]want{{0x2d5c50b0acf4cb2b, 1908, 2, 0, 0}, {0x34faecf445f4f3e0, 1968, 2, 0, 0}}},
		// b's step keys on m.k and on c.v: two leaves already joined.
		{"hash/two-leaf-edge", block(algebra.NewAnd(eq(1, 7), eq(0, 3), eq(8, 5)), "m", "b", "c"), [2]want{{0xbc9602e75c397b60, 542, 2, 0, 0}, {0xdddd820e7606ef7c, 552, 2, 0, 0}}},
		// m–c, m–b and the closing b–c.
		{"hash/cycle", block(algebra.NewAnd(eq(1, 7), eq(0, 3), eq(4, 6)), "m", "b", "c"), [2]want{{0x8f142095858c8eef, 635, 2, 0, 0}, {0x5f3a4f032344ab19, 651, 2, 0, 0}}},
		// b joins on a wild-hash index of m.k ≈ b.k, verifying m.v ≠ b.v
		// per candidate.
		{"wild-hash/residual", block(algebra.NewAnd(eq(1, 7), unify(0, 3), ne(5, 2)), "m", "b", "c"), [2]want{{0xcd09a2b7baa4c2a6, 5608, 1, 0, 1}, {0x77eb3c8175feb397, 5608, 1, 0, 1}}},
		// No edge: c × a, then the residual filter.
		{"product", block(lt(5, 2), "a", "c"), [2]want{{0x634b4c6a3175eb71, 18708, 0, 1, 0}, {0x6911a2b7733cc7c6, 18708, 0, 1, 0}}},
		{"residual", block(algebra.NewAnd(eq(0, 3), ne(2, 5)), "a", "b"), [2]want{{0x88122214f633897, 4010, 1, 0, 0}, {0x800d45c674968389, 4358, 1, 0, 0}}},
		{"scalar-residual", block(algebra.NewAnd(eq(0, 3), algebra.Or{Conds: []algebra.Cond{
			lt(2, 5), algebra.Cmp{Op: algebra.EQ, L: col(5), R: maxC}}}), "a", "b"), [2]want{{0x2280e0a87fc652d0, 4018, 1, 0, 0}, {0xbf434a38dcc980c1, 4366, 1, 0, 0}}},
	}
	for _, c := range cases {
		for si, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
			name := fmt.Sprintf("%s/%v", c.name, sem)
			ref := run(t, db, c.e, eval.Options{Semantics: sem, NoHashJoin: true, Parallelism: 1})
			for _, par := range []int{1, 4} {
				ev := eval.New(db, eval.Options{Semantics: sem, Parallelism: par})
				got, err := ev.Eval(c.e)
				if err != nil {
					t.Fatalf("%s P=%d: %v", name, par, err)
				}
				if g, w := got.SortedStrings(), ref.SortedStrings(); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("%s P=%d: %d rows, the NoHashJoin route %d", name, par, len(g), len(w))
				}
				h := fnv.New64a()
				h.Write([]byte(got.String()))
				st := ev.Stats()
				w := c.want[si]
				if h.Sum64() != w.digest || st.CostUnits != w.cost || st.HashJoins != w.hash ||
					st.NestedLoopJoins != w.nested || st.UnifyJoins != w.unifications {
					t.Errorf("%s P=%d (%d rows): digest %#x, cost %d, hash %d, nested %d, unify %d; want %#x, %d, %d, %d, %d",
						name, par, got.Len(), h.Sum64(), st.CostUnits, st.HashJoins, st.NestedLoopJoins, st.UnifyJoins,
						w.digest, w.cost, w.hash, w.nested, w.unifications)
				}
			}
		}
	}
}

// TestJoinBlockCopiesRowsOnce gates the join block's allocations: σ[a.k
// = b.k ∧ b.k = c.k ∧ c.k = d.k](a × b × c × d) over four stored
// relations of five int columns and 2 000 rows, keyed 1:1, may allocate
// at most twice the bytes of its output's values. Copying each output
// row once leaves room for the indexes and the position tuples; copying
// every intermediate row at every step does not.
func TestJoinBlockCopiesRowsOnce(t *testing.T) {
	const rows, cols = 2000, 5
	s := schema.New()
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		attrs := make([]schema.Attribute, cols)
		for i := range attrs {
			attrs[i] = schema.Attribute{Name: fmt.Sprintf("c%d", i), Type: value.KindInt}
		}
		s.MustAdd(&schema.Relation{Name: name, Attrs: attrs})
	}
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(2000))
	for _, name := range names {
		for _, k := range rng.Perm(rows) {
			row := make(table.Row, cols)
			row[0] = value.Int(int64(k))
			for i := 1; i < cols; i++ {
				row[i] = value.Int(rng.Int63n(1000))
			}
			if err := db.Insert(name, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	var e algebra.Expr = algebra.Base{Name: "a", Cols: cols}
	var conds []algebra.Cond
	for i := 1; i < len(names); i++ {
		e = algebra.Product{L: e, R: algebra.Base{Name: names[i], Cols: cols}}
		conds = append(conds, algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: (i - 1) * cols}, R: algebra.Col{Idx: i * cols}})
	}
	e = algebra.Select{Child: e, Cond: algebra.NewAnd(conds...)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := eval.New(db, eval.Options{Parallelism: 1}).Eval(e)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows {
		t.Fatalf("%d rows, want %d", got.Len(), rows)
	}
	valueBytes := uint64(rows * len(names) * cols * 40)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B, %.2f× the output's %d value bytes", alloc, float64(alloc)/float64(valueBytes), valueBytes)
	if alloc > 2*valueBytes {
		t.Errorf("allocated %d B, more than twice the output's %d value bytes", alloc, valueBytes)
	}
}
