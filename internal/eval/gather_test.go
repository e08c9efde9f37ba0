package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// gatherDB draws l(a,b,c,d) with 60 rows and r(a,b,c,d) with 2 600,
// more than two batches. Values come from a small pool, some as equal
// floats and about one in ten a marked null.
func gatherDB(t *testing.T) *table.Database {
	t.Helper()
	s := schema.New()
	for _, name := range []string{"l", "r"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true}, {Name: "b", Type: value.KindInt, Nullable: true},
			{Name: "c", Type: value.KindInt, Nullable: true}, {Name: "d", Type: value.KindInt, Nullable: true},
		}})
	}
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(51))
	val := func() value.Value {
		switch k := rng.Intn(6); rng.Intn(10) {
		case 0:
			return value.Null(1 + rng.Int63n(4))
		case 1:
			return value.Float(float64(k))
		default:
			return value.Int(int64(k))
		}
	}
	for rel, n := range map[string]int{"l": 60, "r": 2600} {
		for i := 0; i < n; i++ {
			if err := db.Insert(rel, table.Row{val(), val(), val(), val()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestGatherReadsCopies: the filter over a full scan and the
// build-left semijoin stream read a stored relation's columns from its
// copies (table.Column), and any other input from its rows. Each read
// runs once over the stored relation and once over a table.FromRows
// copy of its rows — the filter; the stream plain and fused, each with
// a residual verify condition and a slim one, semi and anti, at
// Parallelism 1 and 2 — and must give byte-identical rows and Stats.
func TestGatherReadsCopies(t *testing.T) {
	db := gatherDB(t)
	stored := db.MustTable("r")
	rows := make([]table.Row, stored.Len())
	for i, r := range stored.Rows() {
		rows[i] = slices.Clone(r)
	}
	copyOf := table.FromRows(stored.Arity(), rows)
	baseL, baseR := algebra.Base{Name: "l", Cols: 4}, algebra.Base{Name: "r", Cols: 4}
	lt := func(c int, v int64) algebra.Cond {
		return algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: c}, R: algebra.Lit{Val: value.Int(v)}}
	}
	col := func(i int) algebra.Col { return algebra.Col{Idx: i} }
	check := func(name string, run func(fromCopy bool) (string, bool)) {
		t.Helper()
		want, readCopies := run(false)
		got, _ := run(true)
		if !readCopies {
			t.Errorf("%s: the stored relation was not read from its column copies", name)
		}
		if got != want {
			t.Errorf("%s: over a FromRows copy\n%s\nover the stored relation\n%s", name, got, want)
		}
	}

	filter := algebra.NewAnd(algebra.NewOr(lt(0, 3), algebra.NullTest{Operand: col(3)}),
		algebra.Cmp{Op: algebra.NE, L: col(1), R: col(2)})
	check("filter", func(fromCopy bool) (string, bool) {
		ev := New(db, Options{Parallelism: 1})
		scan, err := ev.newScanIter(baseR, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fromCopy {
			scan.rows, scan.stored = copyOf.Rows(), nil
		}
		f, err := ev.newFilterIter(scan, filter)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.drain("select", f)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v%+v", got, ev.Stats()), f.read.copies != nil
	})

	cond := algebra.NewAnd(algebra.Cmp{Op: algebra.EQ, L: col(0), R: col(4)},
		algebra.Cmp{Op: algebra.NE, L: col(1), R: col(7)}, algebra.Cmp{Op: algebra.LE, L: col(2), R: col(6)})
	held := db.MustTable("l").Rows()
	for _, fused := range []bool{false, true} {
		for _, slim := range []bool{false, true} {
			for _, anti := range []bool{false, true} {
				var build algebra.Expr = baseR
				if fused {
					build = algebra.Select{Child: baseR, Cond: algebra.NewOr(lt(1, 4), algebra.NullTest{Operand: col(3)})}
				}
				semi := algebra.SemiJoin{L: baseL, R: build, Cond: cond, Anti: anti}
				hints := &PlanHints{Semi: map[string]SemiHint{semi.Key(): {SlimVerify: slim, FuseBuild: fused}}}
				for _, par := range []int{1, 2} {
					check(fmt.Sprintf("build-left fused=%v slim=%v anti=%v P=%d", fused, slim, anti, par), func(fromCopy bool) (string, bool) {
						ev := New(db, Options{Parallelism: par, Hints: hints})
						p, err := ev.prepSemi(semi, semiCond(semi))
						if err != nil {
							t.Fatal(err)
						}
						readCopies := p.r.stored != nil
						if fromCopy {
							p.r = sideOf(copyOf)
						}
						got, err := ev.semiBuildLeft(p, held)
						if err != nil {
							t.Fatal(err)
						}
						return fmt.Sprintf("%v%+v", table.FromRows(4, got), ev.Stats()), readCopies
					})
				}
			}
		}
	}
}
