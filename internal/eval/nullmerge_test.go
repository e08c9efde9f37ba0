package eval

import (
	"math/rand"
	"slices"
	"testing"

	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// TestNullCandidatesExactSize: a read of several columns' null lists
// holds each row with a null in one of them once, in ascending
// position, in a slice of exactly that many rows.
func TestNullCandidatesExactSize(t *testing.T) {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "t", Attrs: []schema.Attribute{
		{Name: "a", Type: value.KindInt, Nullable: true},
		{Name: "b", Type: value.KindInt, Nullable: true},
		{Name: "c", Type: value.KindInt, Nullable: true},
	}})
	db := table.NewDatabase(s)
	rng := rand.New(rand.NewSource(7))
	for i := range 500 {
		row := make(table.Row, 3)
		for c := range row {
			if row[c] = value.Int(int64(i)); rng.Intn(5) == 0 {
				row[c] = db.FreshNull()
			}
		}
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
	tab := db.MustTable("t")
	for _, cols := range [][]int{{0}, {0, 1}, {2, 0, 1}, {1, 1}} {
		var want []table.Row
		for _, r := range tab.Rows() {
			if slices.ContainsFunc(cols, func(c int) bool { return r[c].IsNull() }) {
				want = append(want, r)
			}
		}
		n := countNulls(tab, cols)
		got := nullCandidates(tab, cols, n)
		if n != len(want) || len(got) != len(want) {
			t.Fatalf("cols %v: counted %d, read %d rows, want %d", cols, n, len(got), len(want))
		}
		if len(cols) > 1 && cap(got) != len(got) {
			t.Errorf("cols %v: %d rows in a slice of capacity %d", cols, len(got), cap(got))
		}
		for i := range want {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("cols %v: row %d of the read is not the %d-th row with a null", cols, i, i)
			}
		}
	}
}
