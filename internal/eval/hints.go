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
//   - FuseBuild licenses filtering a select-fed build side during the
//     hash build itself instead of materializing the filtered table
//     first. The planner only sets it when the selection's child is a
//     stored relation and its condition is scalar-free, so the fused
//     pass sees exactly the rows the standalone filter would emit and
//     nothing in the skipped subtree can mint marked nulls, and never
//     on a selection the null lists serve (it would read all of R).
//
// Hints are keyed by the algebra node's canonical Key() string, so a
// cached plan's hints survive across executions and structurally
// identical nodes share one hint.
type PlanHints struct {
	// Semi maps SemiJoin node keys to their hints.
	Semi map[string]SemiHint

	// Views is what the view cache can do for the plan (PlanViews),
	// decided when the plan is made (see Evaluator.Eval).
	Views *Views

	// Shard is not read by the evaluator. It is kept only because the
	// benchmark module (bench/) still sets it; see ShardHint.
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

// ShardHint is not read by anything. It is kept only because the
// benchmark module (bench/) still names it, through PlanHints.Shard and
// plan.ShardResult.
type ShardHint struct{}

// views returns the plan's Views, or nil when the evaluator has none.
func (ev *Evaluator) views() *Views {
	if ev.opts.Hints == nil {
		return nil
	}
	return ev.opts.Hints.Views
}
