package certsql_test

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/tpch"
)

// -update rewrites the golden EXPLAIN files from current planner
// output:
//
//	go test . -run TestGoldenExplain -update
var updateGolden = flag.Bool("update", false, "rewrite golden EXPLAIN files")

// goldenDB is the fixed micro TPC-H instance the golden EXPLAIN files
// are pinned to. Everything is deterministic: the generator is seeded,
// parameter draws are seeded, statistics collection is deterministic
// (the distinct sketch uses a fixed hash), and the planner is pure.
func goldenDB() (*certsql.DB, tpch.Sizes) {
	cfg := certsql.TPCHConfig{ScaleFactor: 0.002, Seed: 42, NullRate: 0.05}
	return certsql.OpenTPCH(cfg), cfg.Sizes()
}

// TestGoldenExplain pins the cost-based planner's EXPLAIN output for
// the certain-answer translations Q⁺1–Q⁺4 of the paper's appendix
// queries. Any change to the cost model, the rewrite rules, or the
// statistics that shifts a plan choice shows up as a readable diff
// here — plan regressions are reviewed, not discovered.
func TestGoldenExplain(t *testing.T) {
	db, sizes := goldenDB()
	rng := rand.New(rand.NewSource(7))
	for _, q := range tpch.AllQueries {
		q := q
		params := q.Params(rng, sizes)
		t.Run(q.String(), func(t *testing.T) {
			text, err := certsql.WithMode(q.SQL(), "certain")
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.ExplainPlan(text, params, certsql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "explain", strings.ToLower(q.String())+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test . -run TestGoldenExplain -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s (re-run with -update if intended):\n--- golden\n%s\n--- got\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenExplainMatchesExecution asserts the golden plans are not
// fiction: for each appendix query, the certain-answer result under the
// cost-based planner is byte-identical to the naive planner's, and the
// EXPLAIN output is stable across repeated calls on the same data.
func TestGoldenExplainMatchesExecution(t *testing.T) {
	db, sizes := goldenDB()
	rng := rand.New(rand.NewSource(7))
	for _, q := range tpch.AllQueries {
		q := q
		params := q.Params(rng, sizes)
		t.Run(q.String(), func(t *testing.T) {
			text, err := certsql.WithMode(q.SQL(), "certain")
			if err != nil {
				t.Fatal(err)
			}
			e1, err := db.ExplainPlan(text, params, certsql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e2, err := db.ExplainPlan(text, params, certsql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if e1 != e2 {
				t.Fatalf("EXPLAIN not deterministic:\nfirst:\n%s\nsecond:\n%s", e1, e2)
			}
			opt, err := db.QueryWithOptions(text, params, certsql.Options{})
			if err != nil {
				t.Fatal(err)
			}
			naive, err := db.QueryWithOptions(text, params, certsql.Options{NaivePlanner: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := opt.Table().String(), naive.Table().String(); got != want {
				t.Fatalf("planner changes %s result bytes:\ncost-based: %s\nnaive:      %s", q, got, want)
			}
		})
	}
}

// TestCostModelTracksExecution holds the planner's cost estimate to the
// work the executor then does: for the OR-split and the raw (NoOrSplit)
// translation of every appendix query, under either planner, the root's
// estimated cost is within 4× of Stats.CostUnits. Raw Q⁺4 is the case
// that used to escape — a join block whose Cartesian and unification
// steps the model did not price at all. The OR-split Q⁺4 is the other
// cell with a wild-bucket step: its supplier–nation disjunction is left
// unsplit inside the antijoins' build sides.
func TestCostModelTracksExecution(t *testing.T) {
	db, sizes := goldenDB()
	rng := rand.New(rand.NewSource(7))
	rootCost := regexp.MustCompile(`cost=([0-9.e+]+)`)
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sizes)
		text, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []certsql.Options{{}, {NoOrSplit: true}, {NaivePlanner: true}, {NaivePlanner: true, NoOrSplit: true}} {
			explain, err := db.ExplainPlan(text, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := rootCost.FindStringSubmatch(explain)
			if m == nil {
				t.Fatalf("%s: no cost in EXPLAIN:\n%s", q, explain)
			}
			est, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.QueryWithOptions(text, params, opts)
			if err != nil {
				t.Fatal(err)
			}
			if q == tpch.Q4 && !opts.NoOrSplit && res.Stats.UnifyJoins == 0 {
				t.Errorf("%s naive-planner=%v: no wild-bucket step ran; the supplier–nation edge should be one", q, opts.NaivePlanner)
			}
			if ratio := est / float64(res.Stats.CostUnits); ratio < 0.25 || ratio > 4 {
				t.Errorf("%s raw=%v naive-planner=%v: estimated cost %.4g vs %d actual cost units (%.2fx)",
					q, opts.NoOrSplit, opts.NaivePlanner, est, res.Stats.CostUnits, ratio)
			}
		}
	}
}
