package certsql_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// guardsCfg is a Figure 4 instance on which Q1 has answers (141 rows,
// Q⁺1 114), so the byte-identity checks below compare real tables.
var guardsCfg = tpch.Config{ScaleFactor: 0.005, Seed: 1, NullRate: 0.02}

// antijoinBuild matches the NOT EXISTS antijoin's trace note, in either
// direction, and captures the number of build rows it read.
var antijoinBuild = regexp.MustCompile(`hash antijoin \[1 keys\] (?:build-left \d+ rows, streamed|build) (\d+)`)

// TestQ1PlusReadsCachedBuild: under SQL's three-valued logic the
// planner's lowering drops Q⁺1's const() guards that a comparison in
// the same conjunction implies, so Q⁺1's lineitem join leaf is Q1's
// σ[l_receiptdate > l_commitdate], and its NOT EXISTS build σ[late ∨
// null(l_receiptdate) ∨ null(l_commitdate)] is split into that cached
// leaf followed by the rows on the two null lists. Every count is taken
// from the instance:
//
//   - the trace reads the cached leaf, then the null lists, and the
//     antijoin reads exactly those rows; EXPLAIN shows the split on
//     both routes, and no guard;
//   - Q⁺1 costs at most 2 units per null-list row (scanned, then
//     streamed) more than Q1, plus one per row with a null l_suppkey,
//     whose const() guard was dropped;
//   - the answers are byte-identical with the view cache off and on the
//     paper route (NaivePlanner), at Parallelism 1 and 4;
//   - under naive semantics, where l_receiptdate > l_commitdate holds on
//     some rows with a null, every guard stays and nothing is read from
//     the cache, in the trace and in EXPLAIN.
func TestQ1PlusReadsCachedBuild(t *testing.T) {
	inst := tpch.Generate(guardsCfg)
	db := certsql.FromInternal(inst)
	params := tpch.Q1.Params(rand.New(rand.NewSource(1)), guardsCfg.Sizes())
	certain, err := certsql.WithMode(tpch.Q1.SQL(), "certain")
	if err != nil {
		t.Fatal(err)
	}

	// l_suppkey, l_commitdate and l_receiptdate are columns 2, 11, 12.
	lineitem := inst.MustTable("lineitem")
	var late, nullDates, nullSupp, naiveLate int
	for _, r := range lineitem.Rows() {
		if r[11].IsNull() || r[12].IsNull() {
			nullDates++
		} else if c, _ := value.Compare(r[12], r[11]); c > 0 {
			late++
		}
		if r[2].IsNull() {
			nullSupp++
		}
		if value.OrderCmp(value.Naive, r[12], r[11], func(c int) bool { return c > 0 }).IsTrue() {
			naiveLate++
		}
	}
	if naiveLate == late {
		t.Fatal("no row with a null date is late under naive semantics: the guards' effect cannot show")
	}

	trace, err := db.Explain(certain, params, certsql.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	read := fmt.Sprintf("cached σ[#12 > #11](lineitem) -> %d rows\nscan lineitem nulls(#12,#11) -> %d of %d rows\n", late, nullDates, lineitem.Len())
	if !strings.Contains(trace, read) {
		t.Errorf("Q⁺1's trace does not read its NOT EXISTS build as\n%s\n%s", read, trace)
	}
	split := regexp.MustCompile(`select \[#12 > #11 OR null\(#12\) OR null\(#11\)\] .*\{split\}\n *cached \[σ\[#12 > #11\]\(lineitem\)\] .*\n *scan \[lineitem\] .*\{access=nulls\(#12,#11\)\}`)
	for _, naivePlanner := range []bool{false, true} {
		plan, err := db.ExplainPlan(certain, params, certsql.Options{NaivePlanner: naivePlanner})
		if err != nil {
			t.Fatal(err)
		}
		if !split.MatchString(plan) || strings.Contains(plan, "const(") {
			t.Errorf("NaivePlanner=%v: Q⁺1's plan keeps a guard or does not split its NOT EXISTS build:\n%s", naivePlanner, plan)
		}
	}
	if m := antijoinBuild.FindStringSubmatch(trace); m == nil || m[1] != strconv.Itoa(late+nullDates) {
		t.Errorf("Q⁺1's antijoin does not read the %d + %d rows of its build side:\n%s", late, nullDates, trace)
	}

	run := func(text string, opts certsql.Options) *certsql.Result {
		t.Helper()
		res, err := db.QueryWithOptions(text, params, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	q1, plus := run(tpch.Q1.SQL(), certsql.Options{Parallelism: 1}), run(certain, certsql.Options{Parallelism: 1})
	gap, bound := plus.Stats.CostUnits-q1.Stats.CostUnits, int64(2*nullDates+nullSupp)
	t.Logf("Q1 %d units, Q⁺1 %d: gap %d, bound %d", q1.Stats.CostUnits, plus.Stats.CostUnits, gap, bound)
	if gap > bound {
		t.Errorf("Q⁺1 costs %d units more than Q1, over 2·%d null-list rows + %d rows with a null l_suppkey", gap, nullDates, nullSupp)
	}

	for _, text := range []string{tpch.Q1.SQL(), certain} {
		want := run(text, certsql.Options{Parallelism: 1}).Table().String()
		for _, opts := range []certsql.Options{{}, {NoViewCache: true}, {NaivePlanner: true}} {
			for _, par := range []int{1, 4} {
				opts.Parallelism = par
				if got := run(text, opts).Table().String(); got != want {
					t.Errorf("%+v: the answer differs from the default run's\n%s", opts, text)
				}
			}
		}
	}

	naive, err := db.Explain(certain, params, certsql.Options{Naive: true, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(naive, "cached ") || strings.Contains(naive, "nulls(#12,#11)") {
		t.Errorf("under naive semantics Q⁺1 read a cached build:\n%s", naive)
	}
	if plan, err := db.ExplainPlan(certain, params, certsql.Options{Naive: true}); err != nil {
		t.Fatal(err)
	} else if strings.Contains(plan, "{split}") || !strings.Contains(plan, "const(#2)") {
		t.Errorf("under naive semantics Q⁺1's plan lost a guard or split its build:\n%s", plan)
	}
	if !strings.Contains(naive, fmt.Sprintf("filter ~> %d rows", late)) {
		t.Errorf("under naive semantics Q⁺1's lineitem leaf lost its guards: no filter keeps the %d late rows with both dates (%d without the guards):\n%s",
			late, naiveLate, naive)
	}
}
