package difftest

import (
	"fmt"
	"math/rand"

	"certsql"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/qgen"
	"certsql/internal/sql"
)

// CheckShardSeed checks only the shard-ablation invariant for one
// generated case: execution routed across k ∈ {2, 3, 8} engine
// shards must render the exact bytes of the unsharded run — same rows,
// same order, same mark minting — on the standard, certain and possible
// routes, under both planners. It skips the
// brute-force ground truth so thousands of cases run in seconds; this
// is FuzzShardAblation's body and the shard smoke check CI runs.
func CheckShardSeed(seed uint64, tuning qgen.Tuning) *Report {
	rng := rand.New(rand.NewSource(int64(seed)))
	db, text := qgen.Case(rng, tuning)
	rep := &Report{Seed: seed, SQL: text, DB: db}

	q, err := sql.Parse(text)
	if err != nil {
		rep.violate("parse", "generated SQL does not parse: %v", err)
		return rep
	}
	compiled, err := compile.Compile(q, db.Schema, nil)
	if err != nil {
		rep.violate("compile", "generated SQL does not compile: %v", err)
		return rep
	}

	fdb := certsql.FromInternal(db)
	translatable := certain.CheckTranslatable(compiled.Expr) == nil
	compareShards(rep, "standard", func(o certsql.Options) (*certsql.Result, error) {
		return fdb.QueryWithOptions(text, nil, o)
	})
	if translatable {
		compareShards(rep, "certain", func(o certsql.Options) (*certsql.Result, error) {
			return fdb.QueryCertainWithOptions(text, nil, o)
		})
		compareShards(rep, "possible", func(o certsql.Options) (*certsql.Result, error) {
			return fdb.QueryPossibleWithOptions(text, nil, o)
		})
	}
	return rep
}

// compareShards runs one route unsharded and across the shard-count ×
// planner matrix, demanding byte-identical outcomes: the same
// error classification, or the exact same result bytes. Budget trips on
// either side skip — the visiting order legitimately changes where
// inside a run a budget trips, never whether results agree.
func compareShards(rep *Report, route string, query func(certsql.Options) (*certsql.Result, error)) {
	base, berr := query(certsql.Options{Parallelism: 1})
	if budgetErr(berr) {
		rep.skip("shard-ablation " + route + ": budget")
		return
	}
	variants := []struct {
		label string
		opts  certsql.Options
	}{
		{"k=2", certsql.Options{Shards: 2, Parallelism: 1}},
		{"k=3", certsql.Options{Shards: 3, Parallelism: 1}},
		{"k=8", certsql.Options{Shards: 8, Parallelism: 1}},
		{"k=2 P=4", certsql.Options{Shards: 2, Parallelism: 4}},
		{"k=2 naive-planner", certsql.Options{Shards: 2, NaivePlanner: true, Parallelism: 1}},
	}
	for _, v := range variants {
		label := fmt.Sprintf("%s %s", route, v.label)
		// The naive-planner variant compares against its own unsharded
		// naive baseline: the planner ablation owns planner-vs-planner
		// agreement, this invariant isolates sharded-vs-unsharded.
		want, werr := base, berr
		if v.opts.NaivePlanner {
			want, werr = query(certsql.Options{NaivePlanner: true, Parallelism: 1})
			if budgetErr(werr) {
				rep.skip("shard-ablation " + label + ": budget")
				continue
			}
		}
		got, gerr := query(v.opts)
		if budgetErr(gerr) {
			rep.skip("shard-ablation " + label + ": budget")
			continue
		}
		switch {
		case werr != nil && gerr != nil:
			continue // both reject the case the same way
		case gerr != nil:
			rep.violate("shard-ablation", "%s: sharded run failed where unsharded succeeds: %v", label, gerr)
			continue
		case werr != nil:
			rep.violate("shard-ablation", "%s: unsharded run failed where sharded succeeds: %v", label, werr)
			continue
		}
		if g, w := got.Table().String(), want.Table().String(); g != w {
			rep.violate("shard-ablation", "%s: sharded and unsharded runs differ:\nunsharded: %s\nsharded:   %s", label, w, g)
		}
	}
}
