package table

import (
	"errors"
	"testing"

	"certsql/internal/schema"
	"certsql/internal/value"
)

func conformSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	err := s.Add(&schema.Relation{
		Name: "r",
		Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindInt, Nullable: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNotNullEnforced(t *testing.T) {
	db := NewDatabase(conformSchema(t))
	err := db.Insert("r", Row{value.Null(1), value.Int(1)})
	var nv *NotNullViolation
	if !errors.As(err, &nv) {
		t.Fatalf("expected *NotNullViolation, got %v", err)
	}
	if nv.Relation != "r" || nv.Attribute != "a" || nv.Col != 0 {
		t.Fatalf("violation fields: %+v", nv)
	}
	if tab := db.MustTable("r"); tab.Len() != 0 {
		t.Fatal("rejected row must not be stored")
	}
	if !db.ConformsNonNull() {
		t.Fatal("rejected row must not count as a violation")
	}
	// Nullable attributes still accept nulls.
	if err := db.Insert("r", Row{value.Int(1), value.Null(2)}); err != nil {
		t.Fatal(err)
	}
	// ReplaceRow enforces too.
	if err := db.ReplaceRow("r", 0, Row{value.Null(3), value.Int(1)}); !errors.As(err, &nv) {
		t.Fatalf("ReplaceRow should enforce: %v", err)
	}
}

func TestReplaceRowBounds(t *testing.T) {
	db := NewDatabase(conformSchema(t))
	if err := db.ReplaceRow("r", 0, Row{value.Int(1), value.Int(2)}); err == nil {
		t.Fatal("out-of-range index should error")
	}
	if err := db.ReplaceRow("nope", 0, Row{value.Int(1)}); err == nil {
		t.Fatal("unknown relation should error")
	}
	if err := db.Insert("r", Row{value.Int(1), value.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := db.ReplaceRow("r", 0, Row{value.Int(1)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

func TestEstimatedBytes(t *testing.T) {
	tab := New(3)
	if tab.EstimatedBytes() != 0 {
		t.Fatal("empty table estimates 0 bytes")
	}
	tab.Append(Row{value.Int(1), value.Int(2), value.Int(3)})
	tab.Append(Row{value.Int(4), value.Int(5), value.Int(6)})
	want := int64(2 * (rowHeaderBytes + 3*valueBytes))
	if got := tab.EstimatedBytes(); got != want {
		t.Fatalf("EstimatedBytes = %d, want %d", got, want)
	}
}
