package certsql_test

import (
	"strings"
	"testing"

	"certsql"
)

// fastpathDB has one NOT NULL table and one nullable table, so queries
// can land on either side of the analyzer's verdict.
func fastpathDB(t testing.TB) *certsql.DB {
	t.Helper()
	db := certsql.MustOpen(
		certsql.Table{
			Name: "dept",
			Columns: []certsql.Column{
				{Name: "id", Type: certsql.TInt},
				{Name: "name", Type: certsql.TString, NotNull: true},
			},
			Key: []string{"id"},
		},
		certsql.Table{
			Name: "emp",
			Columns: []certsql.Column{
				{Name: "id", Type: certsql.TInt},
				{Name: "dept_id", Type: certsql.TInt},
			},
			Key: []string{"id"},
		},
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("dept", 1, "sales"))
	must(db.Insert("dept", 2, "eng"))
	must(db.Insert("dept", 3, "ops"))
	must(db.Insert("emp", 10, 1))
	must(db.Insert("emp", 11, certsql.NULL))
	return db
}

// TestFastPathSafeQuery: a query over NOT NULL data only is one the
// analyzer proves safe. SELECT CERTAIN runs Q⁺ on it like any other
// query, and the answer equals the brute-force ground truth and the
// plain evaluation the analyzer vouches for.
func TestFastPathSafeQuery(t *testing.T) {
	db := fastpathDB(t)
	const q = `SELECT id FROM dept WHERE NOT EXISTS (SELECT * FROM dept d2 WHERE d2.name = dept.name AND d2.id <> dept.id)`

	res, err := db.QueryCertain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certain {
		t.Error("result must be flagged certain")
	}
	truth, err := db.CertainGroundTruth(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceEq(res.SortedStrings(), truth.SortedStrings()) {
		t.Errorf("certain %v != ground truth %v", res.SortedStrings(), truth.SortedStrings())
	}
	plain, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceEq(plain.SortedStrings(), truth.SortedStrings()) {
		t.Errorf("plain %v != ground truth %v on a safe query", plain.SortedStrings(), truth.SortedStrings())
	}
}

// TestFastPathHazardousQuery: negation over nullable data is where plain
// evaluation has false positives; SELECT CERTAIN must match the ground
// truth there.
func TestFastPathHazardousQuery(t *testing.T) {
	db := fastpathDB(t)
	const q = `SELECT id FROM dept WHERE NOT EXISTS (SELECT * FROM emp WHERE dept_id = dept.id)`

	res, err := db.QueryCertain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// emp 11's NULL dept could be 2 or 3: neither is certainly empty.
	truth, err := db.CertainGroundTruth(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sliceEq(res.SortedStrings(), truth.SortedStrings()) {
		t.Errorf("certain %v != ground truth %v", res.SortedStrings(), truth.SortedStrings())
	}
}

// TestFastPathRewriteIdentity: Rewrite of a hazardous query renders the
// full Q⁺, null tests included.
func TestFastPathRewriteIdentity(t *testing.T) {
	db := fastpathDB(t)
	hazardous := `SELECT id FROM dept WHERE NOT EXISTS (SELECT * FROM emp WHERE dept_id = dept.id)`
	full, err := db.Rewrite(hazardous, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full, "IS NULL") {
		t.Errorf("hazardous rewrite should carry null tests, got:\n%s", full)
	}
}

func sliceEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
