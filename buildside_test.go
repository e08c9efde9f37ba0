package certsql_test

import (
	"math/rand"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/tpch"
)

// buildSideCfg is a small Figure 4 instance of its own, so the literals
// below do not move when another test's instance does.
var buildSideCfg = tpch.Config{ScaleFactor: 0.002, Seed: 3, NullRate: 0.02}

// TestCostUnitsDirectionIndependent pins the build-side choice against
// the real predecessor rather than a test hook: the literals are
// Stats.CostUnits of the eight appendix statements (Q1–Q4, standard and
// CERTAIN, default route, parameters seeded with 11) as executed by
// commit 775d467, whose hash joins all indexed the right-hand input. A
// hash join charges |L| + |R| plus one unit per pair verified whichever
// side it indexes, so the counts must not move — at any Parallelism or
// Shards.
func TestCostUnitsDirectionIndependent(t *testing.T) {
	want := map[tpch.QueryID][2]int64{ // standard, CERTAIN
		tpch.Q1: {68859, 86919},
		tpch.Q2: {7251, 6001},
		tpch.Q3: {30090, 30080},
		tpch.Q4: {35155, 116839},
	}
	db := certsql.FromInternal(tpch.Generate(buildSideCfg))
	rng := rand.New(rand.NewSource(11))
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, buildSideCfg.Sizes())
		certain, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range []string{q.SQL(), certain} {
			for _, par := range []int{1, 4} {
				for _, shards := range []int{1, 3} {
					res, err := db.QueryWithOptions(text, params, certsql.Options{Parallelism: par, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Stats.CostUnits; got != want[q][i] {
						t.Errorf("%s certain=%v P=%d Shards=%d: %d cost units, the all-forward predecessor spent %d",
							q, i == 1, par, shards, got, want[q][i])
					}
				}
			}
		}
	}
}

// TestTraceNamesBuildSide asserts the choice is legible and is the
// smaller side: on the TPC-H instance Q1's EXISTS semijoin and NOT
// EXISTS antijoin both end their probe side below |R| and must say
// build-left — so neither built an index over R — and Q4's join block
// must index the rows joined so far, not lineitem.
func TestTraceNamesBuildSide(t *testing.T) {
	db := certsql.FromInternal(tpch.Generate(buildSideCfg))
	rng := rand.New(rand.NewSource(11))
	trace := map[tpch.QueryID]string{}
	for _, q := range tpch.AllQueries {
		tr, err := db.Explain(q.SQL(), q.Params(rng, buildSideCfg.Sizes()), certsql.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		trace[q] = tr
	}
	for _, name := range []string{"semijoin", "antijoin"} {
		if !strings.Contains(trace[tpch.Q1], "hash "+name+" [1 keys] build-left ") {
			t.Errorf("Q1's %s does not report build-left:\n%s", name, trace[tpch.Q1])
		}
	}
	if strings.Contains(trace[tpch.Q1], "join [1 keys] build ") {
		t.Errorf("a Q1 (anti-)semijoin whose probe side is the smaller one indexed R:\n%s", trace[tpch.Q1])
	}
	lineitemStep := false
	for _, line := range strings.Split(trace[tpch.Q4], "\n") {
		if strings.Contains(line, "hash join + ") && strings.Contains(line, "lineitem") {
			lineitemStep = true
			if !strings.Contains(line, " build-left ") {
				t.Errorf("Q4's lineitem step does not index the smaller side: %s", line)
			}
		}
	}
	if !lineitemStep {
		t.Errorf("Q4's trace has no hash join step over lineitem:\n%s", trace[tpch.Q4])
	}
}
