package eval_test

import (
	"fmt"
	"math/rand"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/qgen"
	"certsql/internal/refeval"
	"certsql/internal/table"
	"certsql/internal/value"
)

// Property tests for the unification operator (unify.go): every plan
// shape it serves — the join block's Cartesian step, the (anti-)semijoin
// without a hash key, and R ⋉⇑ S — must return the rows of the
// definitional evaluator (internal/refeval), which shares nothing with
// the engine but the value package's comparison atoms, in the order of
// the nested loop that NoHashJoin leaves in its place.

// unifyDB draws a qgen database and rewrites its values so that every
// hazard of hashing a unification edge occurs: nulls at the given rate
// with marks from a small pool (so equal marks recur, across relations
// too), integral floats that equal ints across kinds, and the integers
// 2⁵³ and 2⁵³+1, distinct values that round to one float64, so a key
// built from float64 would merge them.
func unifyDB(rng *rand.Rand, nullRate float64) *table.Database {
	tn := qgen.Tuning{MaxRelations: 3, MaxArity: 3, MaxRowsPerRelation: 24, MaxNulls: -1}
	sch := qgen.Schema(rng, tn)
	src := qgen.Database(rng, sch, tn)
	db := table.NewDatabase(sch)
	for _, name := range sch.Names() {
		for _, r := range src.MustTable(name).Rows() {
			row := make(table.Row, len(r))
			for i, v := range r {
				switch {
				case rng.Float64() < nullRate:
					v = value.Null(1 + rng.Int63n(4))
				case v.Kind() == value.KindFloat && rng.Intn(2) == 0:
					v = value.Float(float64(rng.Intn(4)))
				case v.Kind() == value.KindInt && rng.Intn(8) == 0:
					v = value.Int(1<<53 + rng.Int63n(2))
				}
				row[i] = v
			}
			if err := db.Insert(name, row); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// unifyEdge is `l.a = r.b [OR l.a IS NULL] [OR r.b IS NULL]`, optionally
// conjoined with `l.c <> r.d` so the index is exercised as a filter
// under a condition it does not decide.
type unifyEdge struct {
	a, b         int
	testA, testB bool
	extra        bool
	c, d         int
}

// cond renders the edge over the concatenated row (r's columns offset by
// nL), the equality's operands and the disjuncts in random order.
func (e unifyEdge) cond(rng *rand.Rand, nL int) algebra.Cond {
	a, b := algebra.Col{Idx: e.a}, algebra.Col{Idx: nL + e.b}
	eq := algebra.Cmp{Op: algebra.EQ, L: a, R: b}
	if rng.Intn(2) == 0 {
		eq.L, eq.R = b, a
	}
	ors := []algebra.Cond{eq}
	if e.testA {
		ors = append(ors, algebra.NullTest{Operand: a})
	}
	if e.testB {
		ors = append(ors, algebra.NullTest{Operand: b})
	}
	rng.Shuffle(len(ors), func(i, j int) { ors[i], ors[j] = ors[j], ors[i] })
	var c algebra.Cond = eq
	if len(ors) > 1 {
		c = algebra.Or{Conds: ors}
	}
	if e.extra {
		ne := algebra.Cmp{Op: algebra.NE, L: algebra.Col{Idx: e.c}, R: algebra.Col{Idx: nL + e.d}}
		c = algebra.And{Conds: []algebra.Cond{ne, c}}
	}
	return c
}

func TestUnifyOperatorMatchesDefinition(t *testing.T) {
	// Both visiting orders of the pool: by position and by owning shard.
	// (Instances this small fit one chunk; TestShardsRouteOnly covers
	// Parallelism 4.)
	routes := []eval.Options{{Parallelism: 1}, {Parallelism: 1, Shards: 3}}
	var edges, unifies, wild, empty int
	for _, rate := range []float64{0, 0.02, 0.10, 0.50, 1} {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(rate*100)))
			db := unifyDB(rng, rate)
			names := db.Schema.Names()
			lName, rName := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			lt, rt := db.MustTable(lName), db.MustTable(rName)
			lBase := algebra.Base{Name: lName, Cols: lt.Arity()}
			rBase := algebra.Base{Name: rName, Cols: rt.Arity()}
			nL := lt.Arity()
			if rt.Len() == 0 {
				empty++
			}
			for _, sem := range []value.Semantics{value.SQL3VL, value.Naive} {
				// check runs e on every route: the rows must be the
				// definition's, and their order that of nested, the same
				// plan with its loops in the order the operator visits
				// them, run as NoHashJoin's nested loop.
				check := func(what string, e, nested algebra.Expr) {
					t.Helper()
					want, err := refeval.Rows(db, sem, e)
					if err != nil {
						t.Fatalf("rate %g seed %d %v %s: definition: %v", rate, seed, sem, what, err)
					}
					loop, err := eval.New(db, eval.Options{Semantics: sem, NoHashJoin: true, Parallelism: 1}).Eval(nested)
					if err != nil {
						t.Fatalf("rate %g seed %d %v %s: nested loop: %v", rate, seed, sem, what, err)
					}
					for _, o := range routes {
						o.Semantics = sem
						ev := eval.New(db, o)
						got, err := ev.Eval(e)
						if err != nil {
							t.Fatalf("rate %g seed %d %v %s: %v", rate, seed, sem, what, err)
						}
						if !refeval.SameMultiset(got.Rows(), want) {
							t.Fatalf("rate %g seed %d %v %s %+v differs from the definition:\n got %s\nwant %s",
								rate, seed, sem, what, o, got.SortedStrings(), table.FromRows(e.Arity(), want).SortedStrings())
						}
						if g, w := got.String(), loop.String(); g != w {
							t.Fatalf("rate %g seed %d %v %s %+v: order differs from the nested loop:\n got %s\nwant %s", rate, seed, sem, what, o, g, w)
						}
						if ev.Stats().UnifyJoins == 0 {
							t.Fatalf("rate %g seed %d %v %s: operator not exercised: %+v", rate, seed, sem, what, ev.Stats())
						}
					}
				}
				// Unification edges on every column pair and null-test subset.
				nR := rt.Arity()
				for a := 0; a < nL; a++ {
					for b := 0; b < nR; b++ {
						e := unifyEdge{a: a, b: b, testA: rng.Intn(2) == 0, testB: rng.Intn(2) == 0,
							extra: rng.Intn(3) == 0, c: rng.Intn(nL), d: rng.Intn(nR)}
						if !e.testA && !e.testB {
							e.testB = true // a bare equality is a hash join, not this operator
						}
						cond := e.cond(rng, nL)
						edges++

						// (Anti-)semijoin: L rows with (without) a partner.
						for _, anti := range []bool{false, true} {
							semi := algebra.SemiJoin{L: lBase, R: rBase, Cond: cond, Anti: anti}
							check(fmt.Sprintf("semijoin anti=%v %s", anti, cond), semi, semi)
						}

						// Join block: its loop starts at the smaller leaf, first
						// on ties, so it runs r-major when R is smaller.
						var join algebra.Expr = algebra.Select{Child: algebra.Product{L: lBase, R: rBase}, Cond: cond}
						nested := join
						if rt.Len() < lt.Len() {
							swap := func(c int) int {
								if c < nL {
									return c + nR
								}
								return c - nL
							}
							cols := make([]int, nL+nR)
							for c := range cols {
								cols[c] = swap(c)
							}
							nested = algebra.Project{Cols: cols,
								Child: algebra.Select{Child: algebra.Product{L: rBase, R: lBase}, Cond: algebra.MapCols(cond, swap)}}
						}
						check("join block "+cond.String(), join, nested)
					}
				}

				// R ⋉⇑ S over a shared-arity projection of both sides.
				n := nL
				if rt.Arity() < n {
					n = rt.Arity()
				}
				cols := make([]int, n)
				for i := range cols {
					cols[i] = i
				}
				lp, rp := algebra.Project{Child: lBase, Cols: cols}, algebra.Project{Child: rBase, Cols: cols}
				for _, anti := range []bool{false, true} {
					unify := algebra.UnifySemi{L: lp, R: rp, Anti: anti}
					check(fmt.Sprintf("unify-semijoin anti=%v", anti), unify, unify)
					unifies++
				}
			}
			if rate == 1 && rt.Len() > 0 {
				wild++
			}
		}
	}
	if edges == 0 || unifies == 0 || wild == 0 || empty == 0 {
		t.Fatalf("coverage: %d edges, %d unify semijoins, %d all-wild builds, %d empty builds", edges, unifies, wild, empty)
	}
}

// TestUnifyOperatorOffUnderNoHashJoin pins the paper toggle: with hash
// strategies disabled the same plans run as nested loops — the confused
// optimizer of Section 7 — and still agree on the answer.
func TestUnifyOperatorOffUnderNoHashJoin(t *testing.T) {
	db := unifyDB(rand.New(rand.NewSource(4)), 0.1)
	names := db.Schema.Names()
	lt, rt := db.MustTable(names[0]), db.MustTable(names[len(names)-1])
	lBase := algebra.Base{Name: names[0], Cols: lt.Arity()}
	rBase := algebra.Base{Name: names[len(names)-1], Cols: rt.Arity()}
	b := algebra.Col{Idx: lt.Arity()}
	cond := algebra.Or{Conds: []algebra.Cond{
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: b}, algebra.NullTest{Operand: b}}}
	e := algebra.SemiJoin{L: lBase, R: rBase, Cond: cond, Anti: true}
	on := eval.New(db, eval.Options{Semantics: value.SQL3VL})
	off := eval.New(db, eval.Options{Semantics: value.SQL3VL, NoHashJoin: true})
	want, err := on.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := off.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("NoHashJoin changes the answer:\n got %s\nwant %s", got, want)
	}
	if st := off.Stats(); st.UnifyJoins != 0 || st.NestedLoopJoins != 1 {
		t.Fatalf("NoHashJoin should leave the nested loop: %+v", st)
	}
	if st := on.Stats(); st.UnifyJoins != 1 || st.NestedLoopJoins != 0 {
		t.Fatalf("default should take the index: %+v", st)
	}
}
