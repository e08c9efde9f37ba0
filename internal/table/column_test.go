package table

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"certsql/internal/value"
)

// checkColumns fails unless every Column of the named relation is its
// rows' column, position for position.
func checkColumns(t *testing.T, db *Database, name, after string) {
	t.Helper()
	tab := db.MustTable(name)
	for c := 0; c < tab.Arity(); c++ {
		col := tab.Column(c)
		if len(col) != tab.Len() {
			t.Fatalf("after %s: column %d has %d values, want %d", after, c, len(col), tab.Len())
		}
		for i, r := range tab.Rows() {
			if col[i] != r[c] {
				t.Errorf("after %s: column %d position %d is %v, row holds %v", after, c, i, col[i], r[c])
			}
		}
	}
}

// TestColumnFollowsEveryWrite reads every column after each write path,
// so that each path meets copies built for the generation before it.
func TestColumnFollowsEveryWrite(t *testing.T) {
	db := NewDatabase(testSchema())
	for i := 0; i < 3; i++ {
		if err := db.Insert("t", Row{value.Int(int64(i)), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	checkColumns(t, db, "t", "Insert")
	if err := db.Load("t", []Row{{db.FreshNull(), value.Str("y")}, {value.Int(9), db.FreshNull()}}); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, db, "t", "Load")
	if err := db.ReplaceRow("t", 1, Row{value.Int(-1), value.Str("z")}); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, db, "t", "ReplaceRow")
	if err := db.Rewrite("t", func(r Row) bool { r[0] = value.Int(7); return true }); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, db, "t", "Rewrite")
	clone := db.Clone()
	if err := clone.Insert("t", Row{value.Int(8), value.Str("w")}); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, clone, "t", "Clone then Insert")
	checkColumns(t, db, "t", "a clone's Insert")
	if err := db.Insert("t", Row{db.FreshNull(), value.Str("v")}); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, db.Apply(map[int64]value.Value{1: value.Int(5), 3: value.Int(6)}), "t", "Apply")
}

// TestColumnAppendExtendsInPlace: a generation that only appended rows
// extends its predecessor's copy, in the predecessor's array once that
// has room, and leaves a reader of the predecessor what it read. A
// second child of the same generation finds the room claimed and
// copies instead of writing over its sibling's values.
func TestColumnAppendExtendsInPlace(t *testing.T) {
	db := NewDatabase(testSchema())
	for i := 0; i < 300; i++ {
		if err := db.Insert("t", Row{value.Int(int64(i)), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(db *Database, a int64) *Database {
		t.Helper()
		next := db.Clone()
		if err := next.Insert("t", Row{value.Int(a), value.Str("y")}); err != nil {
			t.Fatal(err)
		}
		return next
	}
	parent := db.MustTable("t").Column(0) // built at its exact size: the next extension copies
	first := insert(db, 1000)
	grown := first.MustTable("t").Column(0)
	if len(parent) != 300 || parent[299] != value.Int(299) {
		t.Fatalf("the parent's copy changed: %d values, last %v", len(parent), parent[len(parent)-1])
	}
	second := insert(first, 2000)
	sibling := insert(first, 3000)
	got, other := second.MustTable("t").Column(0), sibling.MustTable("t").Column(0)
	if &got[0] != &grown[0] {
		t.Error("an append-only generation copied its predecessor's column instead of extending it in place")
	}
	if &other[0] == &got[0] || other[301] != value.Int(3000) || got[301] != value.Int(2000) {
		t.Errorf("siblings share an array or each other's rows: %v, %v", got[301], other[301])
	}
	if len(grown) != 301 || grown[300] != value.Int(1000) {
		t.Errorf("a reader of the predecessor sees %d values, last %v", len(grown), grown[len(grown)-1])
	}
	checkColumns(t, second, "t", "an extension in place")
	checkColumns(t, sibling, "t", "a sibling's extension")
}

// TestColumnConcurrentFirstUse: goroutines reading columns of one
// generation, through the table and through clones, and of two
// siblings that each appended a row to it, racing to claim the room
// after its copy, all get the rows' columns (run under -race).
func TestColumnConcurrentFirstUse(t *testing.T) {
	db := NewDatabase(testSchema())
	for i := 0; i < 500; i++ {
		if err := db.Insert("t", Row{value.Int(int64(i)), value.Str("x")}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustTable("t").Column(0)
	clones := []*Database{db, db.Clone(), db.Clone(), db.Clone(), db.Clone()}
	for i, c := range clones[3:] {
		if err := c.Insert("t", Row{value.Int(int64(-i)), value.Str("y")}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tab := clones[g%len(clones)].MustTable("t")
			col := tab.Column(g % 2)
			for i, r := range tab.Rows() {
				if col[i] != r[g%2] {
					t.Errorf("goroutine %d: position %d is %v, want %v", g, i, col[i], r[g%2])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestColumnBuildAllocs bounds a generation's copies: the first read of
// each column allocates one slice of Len() values and a little
// bookkeeping, and every later read of the generation allocates
// nothing.
func TestColumnBuildAllocs(t *testing.T) {
	const rows, arity = 4096, 6 // a column of 128 KiB, whole pages
	tab := New(arity)
	for i := 0; i < rows; i++ {
		r := make(Row, arity)
		for c := range r {
			r[c] = value.Int(int64(i * c))
		}
		tab.Append(r)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for c := 0; c < arity; c++ {
		tab.Column(c)
	}
	runtime.ReadMemStats(&after)
	slice := uint64(rows * unsafe.Sizeof(value.Value{}))
	const bookkeeping = 16 << 10 // far below one more column; the race detector's runtime takes some
	if got := after.TotalAlloc - before.TotalAlloc; got > arity*slice+bookkeeping {
		t.Errorf("building %d columns of %d rows allocated %d B, want at most %d B", arity, rows, got, arity*slice+bookkeeping)
	}
	if n := testing.AllocsPerRun(10, func() {
		for c := 0; c < arity; c++ {
			tab.Column(c)
		}
	}); n != 0 {
		t.Errorf("reading built columns allocated %v times per run, want 0", n)
	}
}

// TestConstantsFloatIdentity: the active domain's constants are
// distinct Values, and a float is its bits: ±0 are two constants, a NaN
// stored twice is one.
func TestConstantsFloatIdentity(t *testing.T) {
	db := NewDatabase(testSchema())
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.NaN()} {
		if err := db.Insert("t", Row{value.Float(f), db.FreshNull()}); err != nil {
			t.Fatal(err)
		}
	}
	got := db.Constants()
	if len(got) != 3 || got[0].String() != "-0" || got[1].String() != "0" || got[2].String() != "NaN" {
		t.Errorf("Constants() = %v, want [-0 0 NaN]", got)
	}
}
