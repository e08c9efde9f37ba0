package eval

// PlanHints carry the cost-based planner's per-operator execution
// hints into the evaluator. Hints never change results — difftest's
// planner-ablation invariant holds the hinted and unhinted executions
// to byte-identical outputs — they only license cheaper strategies the
// planner has proved equivalent:
//
//   - SlimVerify drops the extracted hash-key equality conjuncts from
//     a semijoin's per-candidate verify condition. Sound because
//     candidates share a bucket exactly when their key encodings
//     (value.AppendKey) are equal, which for constants is exactly
//     value.Compare's equality and for nulls naive semantics' equality
//     of marks, so every dropped equality is true.
//   - BuildDistinct/BuildRows pre-size the hash index from the
//     statistics' cardinality estimates.
//   - FuseBuild licenses filtering a select-fed build side during the
//     hash build itself instead of materializing the filtered table
//     first. The planner only sets it when the selection's child is a
//     stored relation and its condition is scalar-free, so the fused
//     pass sees exactly the rows the standalone filter would emit and
//     nothing in the skipped subtree can mint marked nulls.
//
// Hints are keyed by the algebra node's canonical Key() string, so a
// cached plan's hints survive across executions and structurally
// identical nodes share one hint.
type PlanHints struct {
	// Semi maps SemiJoin node keys to their hints.
	Semi map[string]SemiHint

	// Shard maps UnifySemi node keys to the shard planner's decisions.
	// The executor no longer reads it: every unification operator runs
	// on the same wild-bucket index at any shard count (unify.go). The
	// field stays so plans that carry the planner's output keep
	// compiling.
	Shard map[string]ShardHint
}

// SemiHint is the hint for one (anti-)semijoin operator.
type SemiHint struct {
	// SlimVerify licenses dropping extracted equality conjuncts from
	// the verify condition (and, when nothing remains, skipping
	// per-candidate verification entirely: match = bucket non-empty).
	// It holds on any data, because key encodings are exact: ints and
	// floats share a bucket only when they are equal, at any magnitude.
	SlimVerify bool
	// BuildRows is the estimated build-side row count.
	BuildRows int64
	// BuildDistinct is the estimated distinct key count on the build
	// side — the right pre-size for the hash index.
	BuildDistinct int64
	// FuseBuild licenses evaluating a Select build side's child
	// directly and applying the selection condition inside the index
	// build loop, skipping the intermediate materialization. The
	// runtime ignores the hint when the select subtree is a shared
	// view (its cached result must still be produced) and falls back
	// to an eager filter when no hash keys are extracted.
	FuseBuild bool
}

// semiHint returns the hint for a semijoin node, or the zero hint.
// The node key is only rendered when hints are installed at all, so
// unhinted executions pay nothing.
func (ev *Evaluator) semiHint(key func() string) SemiHint {
	if ev.opts.Hints == nil || ev.opts.Hints.Semi == nil {
		return SemiHint{}
	}
	return ev.opts.Hints.Semi[key()]
}

// ShardHint is the shard planner's decision for one unification
// (anti-)semijoin operator; see plan.ShardPlan. It is advisory output:
// the executor ignores it.
type ShardHint struct {
	// CoPartition records that the planner found the build side
	// null-free with at least as many distinct rows as shards.
	CoPartition bool
}
