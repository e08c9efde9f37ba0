package certsql_test

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"certsql"
	"certsql/internal/tpch"
)

// traceRead is one relation read as an execution trace or an EXPLAIN
// tree names it: a stored relation and its access — "scan", a null-list
// read "nulls(#…)" — or a view-cache hit, "cached" with the subplan's
// view key as the relation.
type traceRead struct{ rel, access string }

var (
	traceScan   = regexp.MustCompile(`^ *scan (\w+) (?:(nulls\([^)]*\)) )?-> `)
	traceCached = regexp.MustCompile(`^ *cached (.+) -> \d+ rows$`)
	planNode    = regexp.MustCompile(`^( *)(\w[\w-]*)(?: \[(.*)\])? \(rows=[^)]*\)(?: \{(.*)\})?$`)
	planAccess  = regexp.MustCompile(`access=(nulls\([^)]*\))`)
)

// traceReads returns the relation reads of a DB.Explain trace.
func traceReads(trace string) []traceRead {
	var out []traceRead
	for _, line := range strings.Split(trace, "\n") {
		if m := traceScan.FindStringSubmatch(line); m != nil {
			access := "scan"
			if m[2] != "" {
				access = m[2]
			}
			out = append(out, traceRead{m[1], access})
		} else if m := traceCached.FindStringSubmatch(line); m != nil {
			out = append(out, traceRead{m[1], "cached"})
		}
	}
	return out
}

// planReads returns the relation reads an EXPLAIN tree shows: each scan
// leaf with the access its own note or its selection's gives it, and
// each view-cache hit.
func planReads(plan string) map[traceRead]bool {
	out := map[traceRead]bool{}
	access := map[int]string{} // the null-list access of the selection open at each depth
	for _, line := range strings.Split(plan, "\n") {
		m := planNode.FindStringSubmatch(line)
		if m == nil {
			continue // the header lines
		}
		depth, op, detail := len(m[1])/2, m[2], m[3]
		access[depth] = ""
		if a := planAccess.FindStringSubmatch(m[4]); a != nil {
			access[depth] = a[1]
		}
		switch op {
		case "cached":
			out[traceRead{detail, "cached"}] = true
		case "scan":
			read := traceRead{detail, "scan"}
			if a := access[depth]; a != "" {
				read.access = a
			} else if a := access[depth-1]; depth > 0 && a != "" {
				read.access = a
			}
			out[read] = true
		}
	}
	return out
}

// TestTraceReadsAppearInExplain holds EXPLAIN to what runs: for Q1–Q4,
// standard and CERTAIN, on the planner's route and the paper-faithful
// one, every relation DB.Explain's trace reads, with its access — a
// scan, a null-list read or a view-cache hit — is a read EXPLAIN's tree
// shows. Q⁺1's split NOT EXISTS build is among them: its cached
// σ[l_receiptdate > l_commitdate] and the null lists behind it.
func TestTraceReadsAppearInExplain(t *testing.T) {
	db, sizes := goldenDB()
	rng := rand.New(rand.NewSource(7))
	kinds := map[string]int{}
	for _, q := range tpch.AllQueries {
		params := q.Params(rng, sizes)
		for _, mode := range []string{"standard", "certain"} {
			text, err := certsql.WithMode(q.SQL(), mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, naivePlanner := range []bool{false, true} {
				opts := certsql.Options{NaivePlanner: naivePlanner, Parallelism: 1}
				trace, err := db.Explain(text, params, opts)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := db.ExplainPlan(text, params, opts)
				if err != nil {
					t.Fatal(err)
				}
				shown := planReads(plan)
				reads := traceReads(trace)
				if len(reads) == 0 {
					t.Fatalf("%s/%s: the trace reads nothing:\n%s", q, mode, trace)
				}
				for _, r := range reads {
					kinds[strings.SplitN(r.access, "(", 2)[0]]++
					if !shown[r] {
						t.Errorf("%s/%s NaivePlanner=%v: the trace reads %s by %s, EXPLAIN shows no such read\ntrace:\n%s\nEXPLAIN:\n%s",
							q, mode, naivePlanner, r.rel, r.access, trace, plan)
					}
				}
			}
		}
	}
	for _, k := range []string{"scan", "nulls", "cached"} {
		if kinds[k] == 0 {
			t.Errorf("no trace read by %s: the test compares nothing of that access", k)
		}
	}
}
