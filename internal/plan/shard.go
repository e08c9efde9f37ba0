package plan

import (
	"fmt"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/stats"
)

// Shard planning, retired (DESIGN.md §16). ShardPlan used to decide,
// per unification (anti-)semijoin, whether the build side was broadcast
// to every engine shard or co-partitioned into per-shard wild-buckets.
// The executor now runs every unification operator on one hashed
// wild-bucket index at any shard count (internal/eval/unify.go) and
// reads none of this: the decisions below are advisory output only.
// The file stays because the benchmark module compiles against
// ShardPlan, ShardResult and CheckPremises; deleting it takes a
// benchmark change first. What the decision logic still computes:
//
//   - a build side that is not a stored relation has no statistics to
//     consult, and is reported broadcast;
//   - a build relation with nullable content would push its rows into
//     the wild list, so co-partitioning is gated on statistics proving
//     every column null-free — recorded as PremiseNullFree premises;
//   - a build relation with fewer distinct values than shards is
//     reported broadcast as well.

// ShardHint is re-exported so callers configure sharding without
// importing the executor.
type ShardHint = eval.ShardHint

// ShardDecision records one broadcast-vs-co-partition choice, for
// EXPLAIN output.
type ShardDecision struct {
	// Op names the operator ("unify-semijoin" or "unify-antijoin").
	Op string
	// Build names the build side: the relation name, or "(subplan)".
	Build string
	// CoPartition reports the chosen mode.
	CoPartition bool
	// Reason states why, in EXPLAIN-ready prose.
	Reason string
}

// ShardResult is the sharded-execution plan for one expression: the
// per-operator hints, the premises the co-partition choices rely on,
// and the decisions for EXPLAIN.
type ShardResult struct {
	// Hints maps UnifySemi node keys to their hints; nil when the plan
	// contains no unification semijoins.
	Hints map[string]ShardHint
	// Premises are the null-free facts the co-partition hints rely on.
	Premises []Premise
	// Decisions lists every choice in plan-tree order.
	Decisions []ShardDecision
}

// ShardPlan walks e and derives the shard-execution hints for running
// it across the given shard count. st may be nil (no statistics), in
// which case every build side is broadcast. shards < 2 yields nil: an
// unsharded run has no decisions to make.
func ShardPlan(e algebra.Expr, st *stats.DBStats, shards int) *ShardResult {
	if shards < 2 {
		return nil
	}
	r := &ShardResult{}
	seen := map[string]bool{}
	algebra.Walk(e, func(sub algebra.Expr) {
		us, ok := sub.(algebra.UnifySemi)
		if !ok {
			return
		}
		key := us.Key()
		if seen[key] {
			return
		}
		seen[key] = true
		d := r.decide(us, st, shards)
		r.Decisions = append(r.Decisions, d)
		if d.CoPartition {
			if r.Hints == nil {
				r.Hints = map[string]ShardHint{}
			}
			r.Hints[key] = ShardHint{CoPartition: true}
		}
	})
	return r
}

// decide makes the broadcast-vs-co-partition call for one operator,
// recording the premises a co-partition choice depends on. The build
// side need not be a bare stored relation: any subplan whose output
// nulls are bounded by its input relations' (selections, projections,
// products, set operations — the shapes the certain translation
// produces) co-partitions when statistics prove every contributing
// relation null-free.
func (r *ShardResult) decide(us algebra.UnifySemi, st *stats.DBStats, shards int) ShardDecision {
	d := ShardDecision{Op: "unify-semijoin", Build: "(subplan)"}
	if us.Anti {
		d.Op = "unify-antijoin"
	}
	bases, opaque := buildBases(us.R)
	if opaque != "" {
		d.Reason = fmt.Sprintf("broadcast: build side contains %s, whose output nulls no base statistic bounds", opaque)
		return d
	}
	if len(bases) == 0 {
		d.Reason = "broadcast: build side reads no stored relation"
		return d
	}
	d.Build = strings.Join(bases, "+")
	var maxDistinct int64
	var premises []Premise
	for _, name := range bases {
		ts := st.Table(name)
		if ts == nil {
			d.Reason = "broadcast: no statistics for " + name
			return d
		}
		for col := range ts.Cols {
			if !ts.NullFree(col) {
				d.Reason = fmt.Sprintf("broadcast: %s.%d has nulls (rate %.2f), rows would fall in the wild bucket",
					name, col, ts.NullRate(col))
				return d
			}
			if n := ts.Cols[col].Distinct; n > maxDistinct {
				maxDistinct = n
			}
			premises = append(premises, Premise{Kind: PremiseNullFree, Table: name, Col: col})
		}
	}
	if maxDistinct < int64(shards) {
		d.Reason = fmt.Sprintf("broadcast: ~%d distinct values < %d shards, buckets would sit empty",
			maxDistinct, shards)
		return d
	}
	r.Premises = append(r.Premises, premises...)
	d.CoPartition = true
	d.Reason = fmt.Sprintf("co-partition: null-free build side, ~%d distinct values across %d shards",
		maxDistinct, shards)
	return d
}

// buildBases collects the stored relations feeding a build side, in
// first-visit order, walking only through operators whose output nulls
// are bounded by their inputs' (a selection, projection, product, set
// operation, semijoin, distinct, sort, limit or division can reorder,
// drop or concatenate values but never mint a null). The first operator
// outside that set — an aggregate, which emits NULL over an empty
// group, or an adom power, which draws nulls from the whole database —
// is returned as opaque, and the build is broadcast: co-partitioning
// would still be sound, but the statistics cannot price it.
func buildBases(e algebra.Expr) (bases []string, opaque string) {
	seen := map[string]bool{}
	var walk func(e algebra.Expr)
	walk = func(e algebra.Expr) {
		if opaque != "" {
			return
		}
		switch e := e.(type) { // astlint:partial — anything unlisted is opaque by default
		case algebra.Base:
			if !seen[e.Name] {
				seen[e.Name] = true
				bases = append(bases, e.Name)
			}
		case algebra.Select:
			walk(e.Child) // the condition only filters; subquery scalars never land in the output row
		case algebra.Project:
			walk(e.Child)
		case algebra.Product:
			walk(e.L)
			walk(e.R)
		case algebra.Union:
			walk(e.L)
			walk(e.R)
		case algebra.Intersect:
			walk(e.L)
			walk(e.R)
		case algebra.Diff:
			walk(e.L)
			walk(e.R)
		case algebra.SemiJoin:
			walk(e.L) // output rows are rows of L; R only filters
		case algebra.UnifySemi:
			walk(e.L)
		case algebra.Distinct:
			walk(e.Child)
		case algebra.Sort:
			walk(e.Child)
		case algebra.Limit:
			walk(e.Child)
		case algebra.Division:
			walk(e.L) // output tuples are prefixes of L's
		default:
			opaque = strings.TrimPrefix(fmt.Sprintf("%T", e), "algebra.")
		}
	}
	walk(e)
	return bases, opaque
}

// Render returns the EXPLAIN section for the sharded plan, one
// decision per line; empty when there were no decisions.
func (r *ShardResult) Render(shards int) string {
	if r == nil || len(r.Decisions) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shard plan (%d shards)\n", shards)
	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "  %s build %s: %s\n", d.Op, d.Build, d.Reason)
	}
	return b.String()
}
