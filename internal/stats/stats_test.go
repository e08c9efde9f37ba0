package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"certsql/internal/qgen"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

func oneIntRelation(t *testing.T, name string) *schema.Schema {
	t.Helper()
	sch := schema.New()
	sch.MustAdd(&schema.Relation{
		Name: name,
		Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true},
			{Name: "b", Type: value.KindString, Nullable: true},
		},
	})
	return sch
}

// trueDistinct counts distinct non-null values of column col exactly.
func trueDistinct(tab *table.Table, col int) int64 {
	seen := map[value.Value]struct{}{}
	for _, r := range tab.Rows() {
		if !r[col].IsNull() {
			seen[r[col]] = struct{}{}
		}
	}
	return int64(len(seen))
}

func trueNulls(tab *table.Table, col int) int64 {
	n := int64(0)
	for _, r := range tab.Rows() {
		if r[col].IsNull() {
			n++
		}
	}
	return n
}

// TestExactSmall checks that below the sketch threshold every statistic
// is exact: rows, nulls, distinct, min and max.
func TestExactSmall(t *testing.T) {
	sch := oneIntRelation(t, "r")
	db := table.NewDatabase(sch)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		var a, b value.Value
		if rng.Intn(4) == 0 {
			a = db.FreshNull()
		} else {
			a = value.Int(int64(rng.Intn(100)))
		}
		if rng.Intn(5) == 0 {
			b = db.FreshNull()
		} else {
			b = value.Str(fmt.Sprintf("s%d", rng.Intn(40)))
		}
		if err := db.Insert("r", table.Row{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewCollector().Collect(db)
	ts := s.Table("r")
	tab := db.MustTable("r")
	if ts.Rows != int64(tab.Len()) {
		t.Fatalf("rows: got %d want %d", ts.Rows, tab.Len())
	}
	for col := 0; col < 2; col++ {
		c := ts.Cols[col]
		if got, want := c.Nulls, trueNulls(tab, col); got != want {
			t.Errorf("col %d nulls: got %d want %d", col, got, want)
		}
		if !c.DistinctExact {
			t.Errorf("col %d: expected exact distinct below threshold", col)
		}
		if got, want := c.Distinct, trueDistinct(tab, col); got != want {
			t.Errorf("col %d distinct: got %d want %d", col, got, want)
		}
	}
	if rate := ts.NullRate(0); rate <= 0 || rate >= 1 {
		t.Errorf("null rate out of range: %v", rate)
	}
}

// TestDistinctBoundLarge pushes a column far past the exact threshold
// and checks the KMV estimate honours the declared error bound.
func TestDistinctBoundLarge(t *testing.T) {
	sch := oneIntRelation(t, "big")
	db := table.NewDatabase(sch)
	const n = 60000
	for i := 0; i < n; i++ {
		// Column a: all distinct. Column b: 10 distinct values.
		if err := db.Insert("big", table.Row{value.Int(int64(i)), value.Str(fmt.Sprintf("g%d", i%10))}); err != nil {
			t.Fatal(err)
		}
	}
	s := NewCollector().Collect(db)
	c := s.Table("big").Cols[0]
	if c.DistinctExact {
		t.Fatalf("expected sketched estimate above threshold, got exact %d", c.Distinct)
	}
	if relErr := math.Abs(float64(c.Distinct)-n) / n; relErr > DistinctBound {
		t.Fatalf("distinct estimate %d for %d true: relative error %.3f > declared bound %.3f",
			c.Distinct, n, relErr, DistinctBound)
	}
	if cb := s.Table("big").Cols[1]; !cb.DistinctExact || cb.Distinct != 10 {
		t.Fatalf("low-cardinality column should stay exact: %+v", cb)
	}
}

// TestQgenWithinBounds runs the collector over seeded generator
// databases and checks every estimate against ground truth.
func TestQgenWithinBounds(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, _ := qgen.Case(rng, qgen.Tuning{})
		s := NewCollector().Collect(db)
		for _, name := range db.Schema.Names() {
			tab := db.MustTable(name)
			ts := s.Table(name)
			if ts == nil {
				t.Fatalf("seed %d: no stats for %s", seed, name)
			}
			if ts.Rows != int64(tab.Len()) {
				t.Fatalf("seed %d %s: rows %d want %d", seed, name, ts.Rows, tab.Len())
			}
			for col := range ts.Cols {
				c := ts.Cols[col]
				if got, want := c.Nulls, trueNulls(tab, col); got != want {
					t.Fatalf("seed %d %s.%d: nulls %d want %d", seed, name, col, got, want)
				}
				want := trueDistinct(tab, col)
				if c.DistinctExact {
					if c.Distinct != want {
						t.Fatalf("seed %d %s.%d: exact distinct %d want %d", seed, name, col, c.Distinct, want)
					}
				} else if relErr := math.Abs(float64(c.Distinct-want)) / float64(want); relErr > DistinctBound {
					t.Fatalf("seed %d %s.%d: distinct %d want %d, error %.3f", seed, name, col, c.Distinct, want, relErr)
				}
			}
		}
	}
}

// TestMonotoneUnderRepublish appends rows across Store republishes and
// checks no estimate ever shrinks — the property the planner's cost
// audit leans on.
func TestMonotoneUnderRepublish(t *testing.T) {
	sch := oneIntRelation(t, "m")
	st := table.NewStore(table.NewDatabase(sch))
	col := NewCollector()
	st.OnPublish(func(snap *table.Snapshot) { col.Collect(snap.DB) })
	col.Collect(st.Snapshot().DB)

	prev := col.Current().Table("m")
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		_, err := st.Update(func(db *table.Database) error {
			for i := 0; i < 400; i++ {
				var a value.Value
				if rng.Intn(10) == 0 {
					a = db.FreshNull()
				} else {
					a = value.Int(rng.Int63n(1 << 40))
				}
				if err := db.Insert("m", table.Row{a, value.Str(fmt.Sprintf("v%d", rng.Intn(1000)))}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		cur := col.Current().Table("m")
		if cur.Rows < prev.Rows {
			t.Fatalf("round %d: rows shrank %d → %d", round, prev.Rows, cur.Rows)
		}
		for c := range cur.Cols {
			if cur.Cols[c].Nulls < prev.Cols[c].Nulls {
				t.Fatalf("round %d col %d: nulls shrank %d → %d", round, c, prev.Cols[c].Nulls, cur.Cols[c].Nulls)
			}
			if cur.Cols[c].Distinct < prev.Cols[c].Distinct {
				t.Fatalf("round %d col %d: distinct shrank %d → %d", round, c, prev.Cols[c].Distinct, cur.Cols[c].Distinct)
			}
		}
		prev = cur
	}
	if prev.Cols[0].DistinctExact {
		t.Fatalf("expected column a to cross the sketch threshold (distinct=%d)", prev.Cols[0].Distinct)
	}
}

// TestGenerationCache checks that unchanged tables are served from the
// generation cache (same *TableStats pointer) and changed ones rescan.
func TestGenerationCache(t *testing.T) {
	sch := schema.New()
	sch.MustAdd(&schema.Relation{Name: "x", Attrs: []schema.Attribute{{Name: "a", Type: value.KindInt, Nullable: true}}})
	sch.MustAdd(&schema.Relation{Name: "y", Attrs: []schema.Attribute{{Name: "a", Type: value.KindInt, Nullable: true}}})
	db := table.NewDatabase(sch)
	for i := 0; i < 10; i++ {
		_ = db.Insert("x", table.Row{value.Int(int64(i))})
		_ = db.Insert("y", table.Row{value.Int(int64(i))})
	}
	col := NewCollector()
	s1 := col.Collect(db)
	clone := db.Clone()
	if err := clone.Insert("y", table.Row{value.Int(99)}); err != nil {
		t.Fatal(err)
	}
	s2 := col.Collect(clone)
	if s1.Table("x") != s2.Table("x") {
		t.Error("unchanged table x should be served from the generation cache")
	}
	if s1.Table("y") == s2.Table("y") {
		t.Error("mutated table y should have been rescanned")
	}
	if got := s2.Table("y").Rows; got != 11 {
		t.Errorf("y rows after mutation: got %d want 11", got)
	}
}

// TestNoTearConcurrent hammers Current/Collect readers against a
// copy-on-write republishing writer under the race detector: every
// observed snapshot must be internally consistent (counts within the
// snapshot agree with each other), proving reads never tear.
func TestNoTearConcurrent(t *testing.T) {
	sch := oneIntRelation(t, "c")
	st := table.NewStore(table.NewDatabase(sch))
	col := NewCollector()
	st.OnPublish(func(snap *table.Snapshot) { col.Collect(snap.DB) })
	col.Collect(st.Snapshot().DB)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := col.Current()
				ts := s.Table("c")
				if ts == nil {
					t.Errorf("reader %d: snapshot missing table", w)
					return
				}
				for c := range ts.Cols {
					if ts.Cols[c].Nulls > ts.Rows {
						t.Errorf("reader %d: torn snapshot: nulls %d > rows %d", w, ts.Cols[c].Nulls, ts.Rows)
						return
					}
				}
				// Re-collecting against the reader's own snapshot must
				// also be safe concurrently with the writer.
				if i%64 == 0 {
					col.Collect(st.Snapshot().DB)
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		if _, err := st.Update(func(db *table.Database) error {
			for i := 0; i < 20; i++ {
				var v value.Value
				if rng.Intn(3) == 0 {
					v = db.FreshNull()
				} else {
					v = value.Int(rng.Int63n(50))
				}
				if err := db.Insert("c", table.Row{v, value.Str("s")}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
