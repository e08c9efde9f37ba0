package certsql_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"certsql"
)

// notNullDB is r(a) and s(b NOT NULL) with r = {1}. Q⁺ drops the IS NULL
// test on s.b, so a null stored there would make
// SELECT CERTAIN r.a ... NOT EXISTS (... r.a = s.b) return the
// non-certain (1).
func notNullDB(t *testing.T) *certsql.DB {
	t.Helper()
	db := certsql.MustOpen(
		certsql.Table{Name: "r", Columns: []certsql.Column{{Name: "a", Type: certsql.TInt}}},
		certsql.Table{Name: "s", Columns: []certsql.Column{{Name: "b", Type: certsql.TInt, NotNull: true}}},
	)
	if err := db.Insert("r", 1); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestInsertRejectsNullInNotNullColumn: the schema's NOT NULL
// declarations are integrity constraints, so Insert refuses the null,
// and on the data it does accept every route agrees with the ground
// truth.
func TestInsertRejectsNullInNotNullColumn(t *testing.T) {
	db := notNullDB(t)
	err := db.Insert("s", certsql.NULL)
	var nv *certsql.NotNullViolation
	if !errors.As(err, &nv) {
		t.Fatalf("Insert of a null into s.b: got %v, want *NotNullViolation", err)
	}
	if nv.Relation != "s" || nv.Attribute != "b" {
		t.Fatalf("violation names %s.%s, want s.b", nv.Relation, nv.Attribute)
	}
	if n, _ := db.TableLen("s"); n != 0 {
		t.Fatalf("s holds %d rows after the refused insert, want 0", n)
	}

	const q = `SELECT r.a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE r.a = s.b)`
	truth, err := db.CertainGroundTruth(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"standard", "certain"} {
		text, err := certsql.WithMode(q, mode)
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range map[string]certsql.Options{
			"default":           {},
			"naive-planner":     {NaivePlanner: true},
			"no-simplify-nulls": {NoSimplifyNulls: true},
		} {
			res, err := db.QueryWithOptions(text, nil, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			if got, want := res.SortedStrings(), truth.SortedStrings(); !sliceEq(got, want) {
				t.Errorf("%s/%s: %v, ground truth %v", mode, name, got, want)
			}
		}
	}
}

// TestLoadCSVRejectsNullInNotNullColumn: a \N in a NOT NULL column
// fails the load with the typed violation.
func TestLoadCSVRejectsNullInNotNullColumn(t *testing.T) {
	db := notNullDB(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s.csv"), []byte("2\n\\N\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := db.LoadCSV(dir)
	var nv *certsql.NotNullViolation
	if !errors.As(err, &nv) {
		t.Fatalf("LoadCSV with \\N in s.b: got %v, want *NotNullViolation", err)
	}
	if nv.Relation != "s" || nv.Attribute != "b" {
		t.Fatalf("violation names %s.%s, want s.b", nv.Relation, nv.Attribute)
	}
}
