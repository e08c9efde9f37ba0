package table_test

import (
	"math/rand"
	"testing"
	"unsafe"

	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// breaks counts the places where row i+1's values do not directly
// follow row i's in memory: each is the start of a new slab.
func breaks(rows []table.Row) int {
	n := 0
	for i := 1; i < len(rows); i++ {
		prev, next := rows[i-1], rows[i]
		if len(prev) == 0 {
			continue
		}
		end := uintptr(unsafe.Pointer(&prev[0])) + uintptr(len(prev))*unsafe.Sizeof(value.Value{})
		if end != uintptr(unsafe.Pointer(&next[0])) {
			n++
		}
	}
	return n
}

// slabBreaks is how many slab boundaries rows of the given arity cross
// when packed one after another from an empty Packer, whose slabs double
// from 64 values up to 64 Ki: at most that many breaks, fewer when the
// allocator happens to place a slab right after the last.
func slabBreaks(rows, arity int) int {
	room, slabs := 0, 0
	for size := 0; rows > 0; rows-- {
		if room < arity {
			size = max(min(max(2*size, 64), 1<<16), arity)
			room, slabs = size, slabs+1
		}
		room -= arity
	}
	return max(slabs-1, 0)
}

func pairSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "t", Attrs: []schema.Attribute{
		{Name: "a", Type: value.KindInt},
		{Name: "b", Type: value.KindInt, Nullable: true},
	}})
	return s
}

func insertN(t *testing.T, db *table.Database, from, n int) {
	t.Helper()
	row := make(table.Row, 2) // one buffer: Insert copies
	for i := from; i < from+n; i++ {
		row[0], row[1] = value.Int(int64(i)), value.Int(int64(-i))
		if err := db.Insert("t", row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInsertPacksRowsInOrder: 2 000 inserted values fill slabs of 64,
// 128, …, 2 048 values — six slabs, so at most five breaks — and every
// row holds what was inserted although the caller reused one buffer.
func TestInsertPacksRowsInOrder(t *testing.T) {
	db := table.NewDatabase(pairSchema())
	insertN(t, db, 0, 1000)
	rows := db.MustTable("t").Rows()
	if b, want := breaks(rows), slabBreaks(1000, 2); b > want || want != 5 {
		t.Errorf("1000 inserted rows span %d slab breaks, want at most %d (5)", b, want)
	}
	for i, r := range rows {
		if r[0] != value.Int(int64(i)) || r[1] != value.Int(int64(-i)) {
			t.Fatalf("row %d = %v", i, r)
		}
		if cap(r) != len(r) {
			t.Fatalf("row %d has capacity %d beyond its length %d", i, cap(r), len(r))
		}
	}
}

// TestInsertCopiesTheRow: changing the caller's row after Insert,
// Append or SetRow leaves the table as it was.
func TestInsertCopiesTheRow(t *testing.T) {
	db := table.NewDatabase(pairSchema())
	r := table.Row{value.Int(1), value.Int(2)}
	if err := db.Insert("t", r); err != nil {
		t.Fatal(err)
	}
	tab := db.MustTable("t")
	tab.Append(r)
	s := table.Row{value.Int(3), value.Int(4)}
	if err := db.ReplaceRow("t", 1, s); err != nil {
		t.Fatal(err)
	}
	r[0], s[0] = value.Int(9), value.Int(9)
	if got := tab.Row(0)[0]; got != value.Int(1) {
		t.Errorf("row 0 after the caller's change: %v, want 1", got)
	}
	if got := tab.Row(1)[0]; got != value.Int(3) {
		t.Errorf("row 1 after the caller's change: %v, want 3", got)
	}
}

// TestInjectNullsPacksEachTable: null injection rebuilds every table in
// one ordered pass, so each is one slab; so is every relation the
// generator sizes up front, and lineitem, whose size it cannot know,
// spans a handful of geometrically growing slabs.
func TestInjectNullsPacksEachTable(t *testing.T) {
	db := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 7})
	tpch.InjectNulls(db, 0.3, rand.New(rand.NewSource(7)))
	for _, name := range db.Schema.Names() {
		if b := breaks(db.MustTable(name).Rows()); b != 0 {
			t.Errorf("%s after InjectNulls: %d slab breaks, want 0", name, b)
		}
	}
	gen := tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 7, NullRate: 0.3})
	for _, name := range gen.Schema.Names() {
		tab, want := gen.MustTable(name), 0
		if name == "lineitem" {
			want = slabBreaks(tab.Len(), tab.Arity())
		}
		if b := breaks(tab.Rows()); b > want {
			t.Errorf("%s as generated: %d slab breaks, want at most %d", name, b, want)
		}
	}
}

// TestCloneInsertPacksApart: a clone starts with no slab, so rows
// inserted into it after the clone are packed together, and the
// original's later inserts never land in the clone's arrays.
func TestCloneInsertPacksApart(t *testing.T) {
	db := table.NewDatabase(pairSchema())
	insertN(t, db, 0, 10)
	clone := db.Clone()
	insertN(t, clone, 100, 100)
	insertN(t, db, 200, 100)
	got, orig := clone.MustTable("t").Rows(), db.MustTable("t").Rows()
	// 200 values after the clone: slabs of 64 and 128 values, and 8 more.
	if b, want := breaks(got[10:]), slabBreaks(100, 2); b > want {
		t.Errorf("100 rows inserted into a clone span %d slab breaks, want at most %d", b, want)
	}
	for i := 10; i < 110; i++ {
		if got[i][0] != value.Int(int64(90+i)) || orig[i][0] != value.Int(int64(190+i)) {
			t.Fatalf("row %d: clone %v, original %v", i, got[i], orig[i])
		}
		if &got[i][0] == &orig[i][0] {
			t.Fatalf("row %d: clone and original share an array", i)
		}
	}
}
