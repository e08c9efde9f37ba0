package certsql_test

import (
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/table"
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
// side it indexes, so the counts must not move — at any Parallelism.
// Since then one thing has moved them, by an amount computed
// here from the instance: a selection over a stored relation that
// requires a null reads only the rows with one (the trace's
// "scan R nulls(…) -> n of m rows"), so its scan and its filter each
// read |R| − n rows fewer. The pin is the predecessor's count less
// exactly those rows.
func TestCostUnitsDirectionIndependent(t *testing.T) {
	want := map[tpch.QueryID][2]int64{ // standard, CERTAIN
		tpch.Q1: {68859, 86919},
		tpch.Q2: {7251, 6001},
		tpch.Q3: {30090, 30080},
		tpch.Q4: {35155, 116839},
	}
	inst := tpch.Generate(buildSideCfg)
	db := certsql.FromInternal(inst)
	rng := rand.New(rand.NewSource(11))
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, buildSideCfg.Sizes())
		certain, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		for i, text := range []string{q.SQL(), certain} {
			trace, err := db.Explain(text, params, certsql.Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			pin := want[q][i] - unreadByNullScans(t, inst, trace)
			for _, par := range []int{1, 4} {
				res, err := db.QueryWithOptions(text, params, certsql.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Stats.CostUnits; got != pin {
					t.Errorf("%s certain=%v P=%d: %d cost units, the all-forward predecessor spent %d, less %d rows the null lists spared",
						q, i == 1, par, got, want[q][i], want[q][i]-pin)
				}
			}
		}
	}
}

// nullScanNote matches the executor's note for a selection read from a
// stored relation's null lists.
var nullScanNote = regexp.MustCompile(`scan (\w+) nulls\(([#0-9,]+)\) -> (\d+) of (\d+) rows`)

// unreadByNullScans returns Σ 2·(|R| − candidates) over the null-list
// reads a trace names, counting each read's candidates — the rows of R
// with a null in one of the read columns — on the instance itself and
// failing when the trace reports another count.
func unreadByNullScans(t *testing.T, inst *table.Database, trace string) int64 {
	t.Helper()
	var unread int64
	for _, m := range nullScanNote.FindAllStringSubmatch(trace, -1) {
		rel := inst.MustTable(m[1])
		var cols []int
		for _, c := range strings.Split(m[2], ",") {
			col, err := strconv.Atoi(strings.TrimPrefix(c, "#"))
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, col)
		}
		candidates := 0
		for _, r := range rel.Rows() {
			if slices.ContainsFunc(cols, func(c int) bool { return r[c].IsNull() }) {
				candidates++
			}
		}
		if m[3] != strconv.Itoa(candidates) || m[4] != strconv.Itoa(rel.Len()) {
			t.Fatalf("trace reads %s of %s rows of %s, the instance has %d of %d: %s", m[3], m[4], m[1], candidates, rel.Len(), m[0])
		}
		unread += 2 * int64(rel.Len()-candidates)
	}
	return unread
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

// TestTraceNamesNullScans asserts the null-list access path is legible
// where it pays: three of CERTAIN Q4's four passes over lineitem select
// rows with a null (the OR-split's branches) and read only those, the
// fourth scans the table; CERTAIN Q2's uncorrelated NOT EXISTS reads
// only the orders with a null customer.
func TestTraceNamesNullScans(t *testing.T) {
	db := certsql.FromInternal(tpch.Generate(buildSideCfg))
	rng := rand.New(rand.NewSource(11))
	trace := map[tpch.QueryID]string{}
	for _, q := range tpch.AllQueries {
		certain, err := certsql.WithMode(q.SQL(), "certain")
		if err != nil {
			t.Fatal(err)
		}
		if trace[q], err = db.Explain(certain, q.Params(rng, buildSideCfg.Sizes()), certsql.Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		q    tpch.QueryID
		note string
		want int
	}{
		{tpch.Q4, "scan lineitem nulls(", 3},
		{tpch.Q4, "scan lineitem -> ", 1},
		{tpch.Q2, "scan orders nulls(", 1},
	} {
		if got := strings.Count(trace[c.q], c.note); got != c.want {
			t.Errorf("CERTAIN %s's trace names %q %d times, want %d:\n%s", c.q, c.note, got, c.want, trace[c.q])
		}
	}
}
