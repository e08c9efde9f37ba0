package certsql_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/refeval"
)

func apiDB(t *testing.T) *certsql.DB {
	t.Helper()
	db := certsql.MustOpen(
		certsql.Table{
			Name: "emp",
			Columns: []certsql.Column{
				{Name: "id", Type: certsql.TInt},
				{Name: "dept", Type: certsql.TString},
				{Name: "hired", Type: certsql.TDate},
			},
			Key: []string{"id"},
		},
		certsql.Table{
			Name: "badge",
			Columns: []certsql.Column{
				{Name: "emp_id", Type: certsql.TInt},
			},
		},
	)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("emp", 1, "sales", certsql.Date("2020-01-02")))
	must(db.Insert("emp", 2, "eng", certsql.Date("2021-05-06")))
	must(db.Insert("emp", 3, certsql.NULL, certsql.Date("2022-07-08")))
	must(db.Insert("badge", 1))
	must(db.Insert("badge", certsql.NULL))
	return db
}

func TestAPIQueryModes(t *testing.T) {
	db := apiDB(t)
	const q = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`

	plain, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Certain {
		t.Error("plain query flagged certain")
	}
	// SQL thinks employees 2 and 3 have no badge — but the NULL badge
	// could belong to either.
	if plain.Len() != 2 {
		t.Fatalf("SQL evaluation: %v", plain.SortedStrings())
	}

	sure, err := db.Query(strings.Replace(q, "SELECT id", "SELECT CERTAIN id", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sure.Certain {
		t.Error("CERTAIN query not flagged")
	}
	if sure.Len() != 0 {
		t.Fatalf("certain evaluation: %v", sure.SortedStrings())
	}

	// QueryCertain forces the mode without the keyword.
	sure2, err := db.QueryCertain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sure2.Len() != sure.Len() {
		t.Error("QueryCertain disagrees with SELECT CERTAIN")
	}

	// Ground truth agrees.
	truth, err := db.CertainGroundTruth(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Len() != 0 {
		t.Fatalf("ground truth: %v", truth.SortedStrings())
	}
}

// TestAPIPossibleMode checks SELECT POSSIBLE: the potential-answer
// over-approximation brackets the SQL answers from above, and on a
// complete database all three modes coincide.
func TestAPIPossibleMode(t *testing.T) {
	db := apiDB(t)
	const q = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`

	possible, err := db.Query(strings.Replace(q, "SELECT id", "SELECT POSSIBLE id", 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !possible.Possible {
		t.Error("POSSIBLE query not flagged")
	}
	plain, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Employees 2 and 3 might lack a badge; employee 1 certainly has
	// one — but under an interpretation where the NULL badge is 1's
	// duplicate, 2 and 3 still qualify. Possible must cover at least
	// what SQL returns here.
	if possible.Len() < plain.Len() {
		t.Errorf("possible (%d) smaller than SQL answers (%d)", possible.Len(), plain.Len())
	}
	p2, err := db.QueryPossible(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Len() != possible.Len() {
		t.Error("QueryPossible disagrees with SELECT POSSIBLE")
	}

	// On a complete database the three modes coincide.
	complete := certsql.MustOpen(
		certsql.Table{Name: "emp", Columns: []certsql.Column{{Name: "id", Type: certsql.TInt}}, Key: []string{"id"}},
		certsql.Table{Name: "badge", Columns: []certsql.Column{{Name: "emp_id", Type: certsql.TInt}}},
	)
	if err := complete.Insert("emp", 1); err != nil {
		t.Fatal(err)
	}
	if err := complete.Insert("emp", 2); err != nil {
		t.Fatal(err)
	}
	if err := complete.Insert("badge", 1); err != nil {
		t.Fatal(err)
	}
	const q2 = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`
	std, _ := complete.Query(q2, nil)
	cer, _ := complete.QueryCertain(q2, nil)
	pos, _ := complete.QueryPossible(q2, nil)
	if std.Len() != 1 || cer.Len() != 1 || pos.Len() != 1 {
		t.Errorf("complete DB: std %d, certain %d, possible %d — all should be 1",
			std.Len(), cer.Len(), pos.Len())
	}
}

func TestAPIResultHelpers(t *testing.T) {
	db := apiDB(t)
	res, err := db.Query(`SELECT id, dept FROM emp WHERE dept = 'sales'`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[1] != "dept" {
		t.Errorf("Columns = %v", res.Columns)
	}
	if res.Len() != 1 || res.Row(0)[0] != certsql.Int(1) {
		t.Errorf("rows = %v", res.SortedStrings())
	}
	if !res.Contains(certsql.Int(1), certsql.Str("sales")) {
		t.Error("Contains failed")
	}
	all, err := db.Query(`SELECT id, dept FROM emp`, nil)
	if err != nil {
		t.Fatal(err)
	}
	missing := all.Sub(res)
	if len(missing) != 2 {
		t.Errorf("Sub = %v", missing)
	}
	if len(all.Rows()) != 3 {
		t.Errorf("Rows() = %d", len(all.Rows()))
	}
}

func TestAPIRewriteAndExplain(t *testing.T) {
	db := apiDB(t)
	const q = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`
	text, err := db.Rewrite(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "emp_id IS NULL") {
		t.Errorf("rewrite misses the weakened condition:\n%s", text)
	}
	if strings.Contains(text, ".id IS NULL") {
		t.Errorf("rewrite weakened the key column id:\n%s", text)
	}
	plan, err := db.Explain(q, nil, certsql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cost=") || !strings.Contains(plan, "scan") {
		t.Errorf("explain output:\n%s", plan)
	}
}

func TestAPIOptions(t *testing.T) {
	db := apiDB(t)
	const q = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`
	// Ablated translation variants still under-approximate.
	for _, opts := range []certsql.Options{
		{NoOrSplit: true},
		{NoSimplifyNulls: true},
		{NoKeySimplify: true},
		{NoHashJoin: true, NoViewCache: true, NoShortCircuit: true},
		{Naive: true},
	} {
		res, err := db.QueryWithOptions("SELECT CERTAIN"+q[len("SELECT"):], nil, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if res.Len() != 0 {
			t.Errorf("%+v: returned %v", opts, res.SortedStrings())
		}
	}
}

func TestAPIErrors(t *testing.T) {
	db := apiDB(t)
	if _, err := db.Query(`SELECT`, nil); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := db.Query(`SELECT nope FROM emp`, nil); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Rewrite(`SELECT`, nil); err == nil {
		t.Error("Rewrite accepted a syntax error")
	}
	if _, err := db.CertainGroundTruth(`SELECT`, nil); err == nil {
		t.Error("CertainGroundTruth accepted a syntax error")
	}
	if err := db.Insert("emp", struct{}{}, "x", certsql.Date("2020-01-01")); err == nil {
		t.Error("Insert accepted an unsupported Go type")
	}
	if err := db.Insert("ghost", 1); err == nil {
		t.Error("Insert into unknown table accepted")
	}
	if _, err := db.TableLen("ghost"); err == nil {
		t.Error("TableLen of unknown table accepted")
	}
	if _, err := certsql.Open(certsql.Table{Name: "x", Columns: []certsql.Column{{Name: "a", Type: certsql.TInt}}, Key: []string{"nope"}}); err == nil {
		t.Error("Open accepted an undeclared key column")
	}
}

// TestAPIAggregates exercises the decision-support features in
// standard mode, and their clean rejection in certain mode (the paper's
// Section 8 leaves aggregate certain answers as open theory).
func TestAPIAggregates(t *testing.T) {
	db := apiDB(t)
	res, err := db.Query(`SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept LIMIT 10`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Departments: eng, sales, and one NULL dept (groups by mark).
	if res.Len() != 3 {
		t.Fatalf("groups: %v", res.SortedStrings())
	}
	if res.Columns[1] != "count" {
		t.Errorf("Columns = %v", res.Columns)
	}
	// NULL dept sorts last.
	if !res.Row(2)[0].IsNull() {
		t.Errorf("null group not last: %v", res.Rows())
	}

	for _, q := range []string{
		`SELECT CERTAIN dept, COUNT(*) FROM emp GROUP BY dept`,
		`SELECT CERTAIN id FROM emp ORDER BY id`,
		`SELECT CERTAIN id FROM emp LIMIT 1`,
		`SELECT POSSIBLE dept, COUNT(*) FROM emp GROUP BY dept`,
	} {
		if _, err := db.Query(q, nil); err == nil {
			t.Errorf("certain/possible mode accepted %q", q)
		} else if !strings.Contains(err.Error(), "certain:") {
			t.Errorf("unexpected error for %q: %v", q, err)
		}
	}
	// Ground truth refuses a LIMIT before the first valuation: which rows
	// come first is not fixed by the algebra, so there is nothing certain.
	if _, err := db.CertainGroundTruth(`SELECT id FROM emp LIMIT 1`, nil); !errors.Is(err, refeval.ErrLimit) ||
		!strings.Contains(err.Error(), "certain:") {
		t.Errorf("ground truth under LIMIT: got %v, want refeval.ErrLimit", err)
	}
}

func TestAPITooLargeError(t *testing.T) {
	db := apiDB(t)
	res, err := db.QueryWithOptions(`SELECT id FROM emp, badge`, nil, certsql.Options{MaxRows: 2})
	if err == nil {
		t.Fatalf("row budget ignored; got %d rows", res.Len())
	}
	if !errors.Is(err, certsql.ErrTooLarge) {
		t.Errorf("error = %v, want ErrTooLarge", err)
	}
}

func TestAPIMarkedNulls(t *testing.T) {
	db := certsql.MustOpen(
		certsql.Table{Name: "r", Columns: []certsql.Column{{Name: "a", Type: certsql.TInt}}},
	)
	shared := db.FreshNull()
	if err := db.Insert("r", shared); err != nil {
		t.Fatal(err)
	}
	if db.NullCount() != 1 {
		t.Errorf("NullCount = %d", db.NullCount())
	}
	// Codd-null self-join pitfall: SQL mode loses it, naive keeps it.
	const q = `SELECT r1.a FROM r r1, r r2 WHERE r1.a = r2.a`
	sqlRes, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	naiveRes, err := db.QueryWithOptions(q, nil, certsql.Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if sqlRes.Len() != 0 || naiveRes.Len() != 1 {
		t.Errorf("self join: sql %d rows, naive %d rows", sqlRes.Len(), naiveRes.Len())
	}
}

func TestAPITPCH(t *testing.T) {
	db := certsql.OpenTPCH(certsql.TPCHConfig{ScaleFactor: 0.0003, Seed: 5, NullRate: 0.05})
	if db.NullCount() == 0 {
		t.Fatal("no nulls injected")
	}
	n, err := db.TableLen("lineitem")
	if err != nil || n == 0 {
		t.Fatalf("lineitem: %d, %v", n, err)
	}
	res, err := db.Query(`SELECT CERTAIN o_orderkey FROM orders WHERE NOT EXISTS (
	    SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey <> $k)`,
		certsql.Params{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Query(`SELECT o_orderkey FROM orders WHERE NOT EXISTS (
	    SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey <> $k)`,
		certsql.Params{"k": 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() > plain.Len() {
		t.Errorf("certain answers (%d) exceed SQL answers (%d)", res.Len(), plain.Len())
	}
}

// TestAPICSVRoundTrip dumps a TPC-H instance to CSV and reloads it,
// checking row counts, null marks, and that fresh nulls after loading
// do not collide with loaded marks.
func TestAPICSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := certsql.OpenTPCH(certsql.TPCHConfig{ScaleFactor: 0.0003, Seed: 8, NullRate: 0.05})
	if err := src.DumpCSV(dir); err != nil {
		t.Fatal(err)
	}
	dst, err := certsql.OpenTPCHDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"orders", "lineitem", "customer"} {
		a, _ := src.TableLen(rel)
		b, _ := dst.TableLen(rel)
		if a != b {
			t.Errorf("%s: %d rows loaded, want %d", rel, b, a)
		}
	}
	if src.NullCount() != dst.NullCount() {
		t.Errorf("null counts differ: %d vs %d", src.NullCount(), dst.NullCount())
	}
	// Queries agree on the two copies.
	const q = `SELECT CERTAIN o_orderkey FROM orders WHERE NOT EXISTS (
	    SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey <> 2)`
	r1, err := src.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dst.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(r1.SortedStrings(), ";") != strings.Join(r2.SortedStrings(), ";") {
		t.Error("query results differ after CSV round trip")
	}
	// Fresh nulls must not collide with loaded marks.
	n := dst.FreshNull()
	for _, rel := range []string{"orders", "lineitem"} {
		res, err := dst.Query(`SELECT o_orderkey FROM orders WHERE o_orderkey < 0`, nil)
		if err != nil || res.Len() != 0 {
			t.Fatalf("%s sanity: %v", rel, err)
		}
	}
	if err := dst.Insert("region", 99, n, "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := certsql.OpenTPCHDir(t.TempDir()); err == nil {
		t.Error("OpenTPCHDir accepted an empty directory")
	}
}

func TestAPIRewritePossible(t *testing.T) {
	db := apiDB(t)
	const q = `SELECT id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id)`
	text, err := db.RewritePossible(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Q⋆ strengthens the NOT EXISTS condition (θ*): the inner equality
	// gains IS NOT NULL guards rather than IS NULL disjuncts.
	if !strings.Contains(text, "IS NOT NULL") {
		t.Errorf("possible rewrite misses strengthened condition:\n%s", text)
	}
	if strings.Contains(text, "emp_id IS NULL") {
		t.Errorf("possible rewrite weakened the inner condition like Q+:\n%s", text)
	}
	// Aggregates are rejected in both rewriting directions.
	if _, err := db.Rewrite(`SELECT dept, COUNT(*) FROM emp GROUP BY dept`, nil); err == nil {
		t.Error("Rewrite accepted an aggregate query")
	}
	if _, err := db.RewritePossible(`SELECT dept, COUNT(*) FROM emp GROUP BY dept`, nil); err == nil {
		t.Error("RewritePossible accepted an aggregate query")
	}
}

// TestAPISignedZeroKeys: numeric equality is one exact relation, and
// every hash-keyed operator — EXISTS, NOT EXISTS, joins, INTERSECT,
// EXCEPT, GROUP BY and DISTINCT — must key by it, across int and float
// too. Three fixtures hold the hard cases: -0.0, 0.0 and integer 0
// compare equal but differ in their IEEE bits; 2⁵³ and 2⁵³+1 are
// distinct but round to one float64; and Int(MaxInt64) rounds to
// Float(2⁶³) but does not equal it. Every case must return exactly its rows by default,
// under nested loops (NoHashJoin) and under the unoptimized plans
// (NaivePlanner), and in CERTAIN mode agree with brute force.
func TestAPISignedZeroKeys(t *testing.T) {
	cases := []struct {
		name, sql string
		certain   bool // also run as SELECT CERTAIN and against brute force
	}{
		{"exists", `SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE a = b)`, true},
		{"not-exists", `SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE a = b)`, true},
		{"join", `SELECT a, b FROM r, s WHERE a = b`, true},
		{"intersect", `SELECT a FROM r INTERSECT SELECT b FROM s`, true},
		{"except", `SELECT a FROM r EXCEPT SELECT b FROM s`, true},
		{"group-by", `SELECT a, COUNT(*) FROM r GROUP BY a`, false},
		{"distinct", `SELECT DISTINCT a FROM r`, true},
		{"exists-float", `SELECT a FROM r WHERE EXISTS (SELECT * FROM f WHERE a = c)`, true},
	}
	type row struct {
		table string
		v     any
	}
	const big = int64(1) << 53
	fixtures := []struct {
		name  string
		aType certsql.Type // r.a's type; s.b is INT and f.c FLOAT
		rows  []row
		want  map[string]string // case → exact sorted rows
	}{
		{"signed-zero", certsql.TFloat,
			[]row{{"r", certsql.Float(math.Copysign(0, -1))}, {"r", 0.0}, {"r", 1.5}, {"s", 0}, {"s", 2}, {"f", 0.0}},
			map[string]string{
				"exists": "(-0) (0)", "not-exists": "(1.5)", "join": "(-0, 0) (0, 0)",
				"intersect": "(-0)", "except": "(1.5)", "group-by": "(-0, 2) (1.5, 1)",
				"distinct": "(-0) (1.5)", "exists-float": "(-0) (0)",
			}},
		{"beyond-2^53", certsql.TInt,
			[]row{{"r", big}, {"r", big + 1}, {"s", big}, {"f", float64(big)}},
			map[string]string{
				"exists": "(9007199254740992)", "not-exists": "(9007199254740993)",
				"join": "(9007199254740992, 9007199254740992)", "intersect": "(9007199254740992)",
				"except": "(9007199254740993)", "group-by": "(9007199254740992, 1) (9007199254740993, 1)",
				"distinct": "(9007199254740992) (9007199254740993)", "exists-float": "(9007199254740992)",
			}},
		{"2^63-vs-max-int64", certsql.TFloat,
			[]row{{"r", 0x1p63}, {"s", int64(math.MaxInt64)}, {"f", 0x1p63}},
			map[string]string{
				"exists": "", "not-exists": "(9.223372036854776e+18)", "join": "", "intersect": "",
				"except": "(9.223372036854776e+18)", "group-by": "(9.223372036854776e+18, 1)",
				"distinct": "(9.223372036854776e+18)", "exists-float": "(9.223372036854776e+18)",
			}},
	}
	optSets := []struct {
		name string
		opts certsql.Options
	}{{"default", certsql.Options{}}, {"no-hash-join", certsql.Options{NoHashJoin: true}}, {"naive-planner", certsql.Options{NaivePlanner: true}}}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			db := certsql.MustOpen(
				certsql.Table{Name: "r", Columns: []certsql.Column{{Name: "a", Type: fx.aType}}},
				certsql.Table{Name: "s", Columns: []certsql.Column{{Name: "b", Type: certsql.TInt}}},
				certsql.Table{Name: "f", Columns: []certsql.Column{{Name: "c", Type: certsql.TFloat}}},
			)
			for _, r := range fx.rows {
				if err := db.Insert(r.table, r.v); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range cases {
				modes := []string{"standard"}
				if c.certain {
					modes = append(modes, "certain")
				}
				for _, mode := range modes {
					text, err := certsql.WithMode(c.sql, mode)
					if err != nil {
						t.Fatal(err)
					}
					var first *certsql.Result
					for _, o := range optSets {
						res, err := db.QueryWithOptions(text, nil, o.opts)
						if err != nil {
							t.Fatalf("%s/%s/%s: %v", c.name, mode, o.name, err)
						}
						if got := strings.Join(res.SortedStrings(), " "); got != fx.want[c.name] {
							t.Errorf("%s/%s/%s: got %s, want %s", c.name, mode, o.name, got, fx.want[c.name])
						}
						if first == nil {
							first = res
						}
					}
					if mode != "certain" {
						continue
					}
					// Brute force returns a set, one row per key, whichever
					// equal constant it met first (Float(2⁵³) for Int(2⁵³)):
					// compare by mutual containment, which matches rows by key.
					truth, err := db.CertainGroundTruth(c.sql, nil)
					if err != nil {
						t.Fatalf("%s: ground truth: %v", c.name, err)
					}
					for _, pair := range [][2]*certsql.Result{{truth, first}, {first, truth}} {
						for _, row := range pair[0].Rows() {
							if !pair[1].Contains(row...) {
								t.Errorf("%s: ground truth %v, SELECT CERTAIN %v", c.name, truth.SortedStrings(), first.SortedStrings())
							}
						}
					}
				}
			}
		})
	}
}
