package table

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"certsql/internal/schema"
	"certsql/internal/value"
)

func testSchema() *schema.Schema {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "t", Attrs: []schema.Attribute{
		{Name: "a", Type: value.KindInt, Nullable: true},
		{Name: "b", Type: value.KindString, Nullable: true},
	}})
	s.MustAdd(&schema.Relation{Name: "u", Attrs: []schema.Attribute{
		{Name: "x", Type: value.KindDate, Nullable: true},
	}})
	return s
}

func TestTableBasics(t *testing.T) {
	tab := New(2)
	tab.Append(Row{value.Int(1), value.Str("a")})
	tab.Append(Row{value.Int(1), value.Str("a")})
	tab.Append(Row{value.Int(2), value.Str("b")})
	if tab.Len() != 3 || tab.Arity() != 2 {
		t.Fatalf("len %d arity %d", tab.Len(), tab.Arity())
	}
	d := tab.Distinct()
	if d.Len() != 2 {
		t.Errorf("distinct: %d rows", d.Len())
	}
	if !tab.Contains(Row{value.Int(2), value.Str("b")}) {
		t.Error("Contains missed a row")
	}
	if tab.Contains(Row{value.Int(3), value.Str("b")}) {
		t.Error("Contains found a missing row")
	}
	got := tab.SortedStrings()
	if got[0] != "(1, 'a')" {
		t.Errorf("SortedStrings[0] = %q", got[0])
	}
	if !strings.Contains(tab.String(), "(2, 'b')") {
		t.Errorf("String() = %q", tab.String())
	}
}

func TestDistinctMarkedNulls(t *testing.T) {
	tab := New(1)
	tab.Append(Row{value.Null(1)})
	tab.Append(Row{value.Null(1)})
	tab.Append(Row{value.Null(2)})
	d := tab.Distinct()
	if d.Len() != 2 {
		t.Errorf("marked nulls dedupe to %d rows, want 2 (⊥1, ⊥2 distinct)", d.Len())
	}
}

func TestAppendPanics(t *testing.T) {
	tab := New(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on arity mismatch")
		}
	}()
	tab.Append(Row{value.Int(1)})
}

func TestSetRow(t *testing.T) {
	tab := New(1)
	tab.Append(Row{value.Int(1)})
	tab.SetRow(0, Row{value.Int(2)})
	if tab.Row(0)[0] != value.Int(2) {
		t.Error("SetRow did not replace")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on SetRow arity mismatch")
		}
	}()
	tab.SetRow(0, Row{value.Int(1), value.Int(2)})
}

func TestDatabaseInsertValidation(t *testing.T) {
	db := NewDatabase(testSchema())
	if err := db.Insert("t", Row{value.Int(1), value.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", Row{db.FreshNull(), db.FreshNull()}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("nope", Row{}); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if err := db.Insert("t", Row{value.Int(1)}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := db.Insert("t", Row{value.Str("wrong"), value.Str("x")}); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("Table() of unknown relation succeeded")
	}
}

func TestDatabaseNullsAndDomain(t *testing.T) {
	db := NewDatabase(testSchema())
	n1 := db.FreshNull()
	n2 := db.FreshNull()
	if n1.NullID() == n2.NullID() {
		t.Fatal("FreshNull repeated a mark")
	}
	if err := db.Insert("t", Row{n1, value.Str("x")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", Row{n1, value.Str("y")}); err != nil { // repeated mark
		t.Fatal(err)
	}
	if err := db.Insert("u", Row{n2}); err != nil {
		t.Errorf("null rejected in a date column: %v", err)
	}
	if db.NullCount() != 3 {
		t.Errorf("NullCount = %d, want 3 occurrences", db.NullCount())
	}
	if got := db.Nulls(); len(got) != 2 || got[0] != n1.NullID() || got[1] != n2.NullID() {
		t.Errorf("Nulls() = %v", got)
	}
	consts := db.Constants()
	if len(consts) != 2 {
		t.Errorf("Constants() = %v", consts)
	}
	dom := db.ActiveDomain()
	if len(dom) != 4 {
		t.Errorf("ActiveDomain has %d elements, want 4", len(dom))
	}
}

func TestApplyValuation(t *testing.T) {
	db := NewDatabase(testSchema())
	n1 := db.FreshNull()
	if err := db.Insert("t", Row{n1, value.Str("x")}); err != nil {
		t.Fatal(err)
	}
	v := map[int64]value.Value{n1.NullID(): value.Int(42)}
	complete := db.Apply(v)
	if complete.NullCount() != 0 {
		t.Error("Apply left nulls behind")
	}
	if got := complete.MustTable("t").Row(0)[0]; got != value.Int(42) {
		t.Errorf("applied value = %v", got)
	}
	// The original is untouched.
	if db.MustTable("t").Row(0)[0] != n1 {
		t.Error("Apply mutated the original database")
	}
}

func TestCloneIndependence(t *testing.T) {
	db := NewDatabase(testSchema())
	if err := db.Insert("t", Row{value.Int(1), value.Str("x")}); err != nil {
		t.Fatal(err)
	}
	clone := db.Clone()
	clone.MustTable("t").SetRow(0, Row{value.Int(2), value.Str("y")})
	clone.MustTable("t").Append(Row{value.Int(3), value.Str("z")})
	if db.MustTable("t").Len() != 1 {
		t.Error("clone append leaked into original")
	}
	if db.MustTable("t").Row(0)[0] != value.Int(1) {
		t.Error("clone SetRow leaked into original")
	}
	// Fresh nulls in the clone do not collide with the original's.
	a := clone.FreshNull()
	b := db.FreshNull()
	if a.NullID() != b.NullID() {
		// Clones share the counter value at clone time; both minting is
		// fine as long as each database is internally consistent.
		t.Logf("clone mark %d, original mark %d", a.NullID(), b.NullID())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := NewDatabase(testSchema())
	n := db.FreshNull()
	rows := []Row{
		{value.Int(1), value.Str("hello, world")},
		{n, value.Str(`quote"and,comma`)},
		{value.Int(3), n}, // repeated mark across columns
	}
	for _, r := range rows {
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.MustTable("t").WriteCSVWithMarks(&buf); err != nil {
		t.Fatal(err)
	}

	db2 := NewDatabase(testSchema())
	if err := ReadCSVInto(db2, "t", bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got := db2.MustTable("t")
	if got.Len() != 3 {
		t.Fatalf("round trip lost rows: %d", got.Len())
	}
	// The repeated mark must survive.
	if got.Row(1)[0] != got.Row(2)[1] {
		t.Errorf("marked null identity lost: %v vs %v", got.Row(1)[0], got.Row(2)[1])
	}
	if got.Row(0)[1] != value.Str("hello, world") {
		t.Errorf("string mangled: %v", got.Row(0)[1])
	}

	// Plain WriteCSV: nulls become \N and fresh marks on load.
	var buf2 bytes.Buffer
	if err := db.MustTable("t").WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), `\N`) {
		t.Errorf("plain CSV misses \\N: %s", buf2.String())
	}
	db3 := NewDatabase(testSchema())
	if err := ReadCSVInto(db3, "t", bytes.NewReader(buf2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if db3.NullCount() != 2 {
		t.Errorf("null count after plain round trip = %d, want 2", db3.NullCount())
	}
}

func TestCSVAllKinds(t *testing.T) {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "k", Attrs: []schema.Attribute{
		{Name: "i", Type: value.KindInt, Nullable: true},
		{Name: "f", Type: value.KindFloat, Nullable: true},
		{Name: "s", Type: value.KindString, Nullable: true},
		{Name: "d", Type: value.KindDate, Nullable: true},
		{Name: "b", Type: value.KindBool, Nullable: true},
	}})
	db := NewDatabase(s)
	if err := db.Insert("k", Row{
		value.Int(-5), value.Float(2.25), value.Str("x"), value.MustDate("1997-06-15"), value.Bool(true),
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.MustTable("k").WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase(s)
	if err := ReadCSVInto(db2, "k", &buf); err != nil {
		t.Fatal(err)
	}
	want := db.MustTable("k").Row(0)
	got := db2.MustTable("k").Row(0)
	for i := range want {
		if value.RowKey(Row{got[i]}) != value.RowKey(Row{want[i]}) {
			t.Errorf("column %d: %v != %v", i, got[i], want[i])
		}
	}
	if err := ReadCSVInto(db2, "missing", &buf); err == nil {
		t.Error("ReadCSVInto accepted unknown relation")
	}
	if err := ReadCSVInto(db2, "k", strings.NewReader("notanint,1,x,1997-01-01,true\n")); err == nil {
		t.Error("ReadCSVInto accepted a bad int")
	}
}

func TestFromRowsAndGrow(t *testing.T) {
	rows := make([]Row, 100)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		rows[i] = Row{value.Int(rng.Int63n(10))}
	}
	tab := FromRows(1, rows)
	if tab.Len() != 100 {
		t.Fatalf("len %d", tab.Len())
	}
	tab.Grow(1000)
	if tab.Len() != 100 {
		t.Fatalf("Grow changed length: %d", tab.Len())
	}
	tab.Append(Row{value.Int(5)})
	if tab.Len() != 101 {
		t.Fatal("append after grow")
	}
}

// TestTableQuickProperties uses testing/quick on the core set
// operations: Distinct is idempotent, KeySet size matches Distinct
// length, and Contains agrees with KeySet membership.
func TestTableQuickProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vs []reflect.Value, rng *rand.Rand) {
		n := rng.Intn(12)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{randVal(rng), randVal(rng)}
		}
		vs[0] = reflect.ValueOf(rows)
	}}
	if err := quick.Check(func(rows []Row) bool {
		tab := FromRows(2, rows)
		d1 := tab.Distinct()
		d2 := d1.Distinct()
		if d1.Len() != d2.Len() {
			return false
		}
		if len(tab.KeySet()) != d1.Len() {
			return false
		}
		for _, r := range rows {
			if !tab.Contains(r) {
				return false
			}
			if _, ok := tab.KeySet()[value.RowKey(r)]; !ok {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func randVal(rng *rand.Rand) value.Value {
	switch rng.Intn(4) {
	case 0:
		return value.Int(int64(rng.Intn(3)))
	case 1:
		return value.Str([]string{"x", "y"}[rng.Intn(2)])
	case 2:
		return value.Null(int64(rng.Intn(3)))
	default:
		return value.Float(float64(rng.Intn(2)))
	}
}
