package table

import (
	"reflect"
	"sync"
	"testing"

	"certsql/internal/value"
)

// nullPositions returns NullRows' positions for col, checking that its
// rows are the table's rows at those positions.
func nullPositions(t *testing.T, tab *Table, col int) []int {
	t.Helper()
	rows, pos := tab.NullRows(col)
	if len(rows) != len(pos) {
		t.Fatalf("column %d: %d rows but %d positions", col, len(rows), len(pos))
	}
	for i, p := range pos {
		if &rows[i][0] != &tab.Row(p)[0] {
			t.Fatalf("column %d: list row %d is not row %d of the table", col, i, p)
		}
	}
	return pos
}

// nullFixture is a database whose table t holds nulls at a in rows 1
// and 3 and at b in row 2.
func nullFixture(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(testSchema())
	for _, r := range []Row{
		{value.Int(1), value.Str("a")},
		{db.FreshNull(), value.Str("b")},
		{value.Int(3), db.FreshNull()},
		{db.FreshNull(), value.Str("d")},
	} {
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestNullRowsRebuiltAfterMutation(t *testing.T) {
	db := nullFixture(t)
	tab := db.MustTable("t")
	if got := nullPositions(t, tab, 0); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("a's nulls at %v, want [1 3]", got)
	}
	if got := nullPositions(t, tab, 1); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("b's nulls at %v, want [2]", got)
	}
	if err := db.Insert("t", Row{db.FreshNull(), value.Str("e")}); err != nil {
		t.Fatal(err)
	}
	if got := nullPositions(t, tab, 0); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("after Insert, a's nulls at %v, want [1 3 4]", got)
	}
	if err := db.ReplaceRow("t", 1, Row{value.Int(2), db.FreshNull()}); err != nil {
		t.Fatal(err)
	}
	if got := nullPositions(t, tab, 0); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("after ReplaceRow, a's nulls at %v, want [3 4]", got)
	}
	if got := nullPositions(t, tab, 1); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("after ReplaceRow, b's nulls at %v, want [1 2]", got)
	}
}

func TestNullRowsSharedByCloneUntilMutation(t *testing.T) {
	db := nullFixture(t)
	orig := db.MustTable("t")
	before, _ := orig.NullRows(0)
	clone := db.Clone()
	shared, _ := clone.MustTable("t").NullRows(0)
	if &shared[0] != &before[0] {
		t.Fatal("a clone of the same generation rebuilt the null lists instead of sharing them")
	}
	if err := clone.Insert("t", Row{db.FreshNull(), value.Str("e")}); err != nil {
		t.Fatal(err)
	}
	if got := nullPositions(t, clone.MustTable("t"), 0); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("mutated clone: a's nulls at %v, want [1 3 4]", got)
	}
	after, pos := orig.NullRows(0)
	if &after[0] != &before[0] || !reflect.DeepEqual(pos, []int{1, 3}) {
		t.Errorf("the clone's mutation reached the original's lists: a's nulls at %v", pos)
	}
	if err := db.ReplaceRow("t", 0, Row{db.FreshNull(), value.Str("a")}); err != nil {
		t.Fatal(err)
	}
	if got := nullPositions(t, orig, 0); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("mutated original: a's nulls at %v, want [0 1 3]", got)
	}
	if got := nullPositions(t, clone.MustTable("t"), 0); !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Errorf("the original's mutation reached the clone's lists: a's nulls at %v", got)
	}
}

func TestApplyHoldsNoNullLists(t *testing.T) {
	db := nullFixture(t)
	db.MustTable("t").NullRows(0) // the source's lists exist
	full := db.Apply(map[int64]value.Value{1: value.Int(7), 2: value.Str("z"), 3: value.Int(9)})
	for col := 0; col < 2; col++ {
		if rows, pos := full.MustTable("t").NullRows(col); len(rows) != 0 || len(pos) != 0 {
			t.Errorf("column %d of a complete v(D) lists nulls at %v", col, pos)
		}
	}
	partial := db.Apply(map[int64]value.Value{1: value.Int(7)})
	if got := nullPositions(t, partial.MustTable("t"), 0); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("a's nulls left by a partial valuation at %v, want [3]", got)
	}
}

// TestNullRowsConcurrentFirstUse runs the first NullRows of a
// generation from many goroutines at once; under -race it checks that
// publishing the lists is race-free, and every caller must see them.
func TestNullRowsConcurrentFirstUse(t *testing.T) {
	db := nullFixture(t)
	tab := db.MustTable("t")
	var wg sync.WaitGroup
	got := make([][]int, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, got[g] = tab.NullRows(g % 2)
		}()
	}
	wg.Wait()
	for g, pos := range got {
		want := []int{1, 3}
		if g%2 == 1 {
			want = []int{2}
		}
		if !reflect.DeepEqual(pos, want) {
			t.Errorf("goroutine %d: nulls at %v, want %v", g, pos, want)
		}
	}
}
