package eval

import "certsql/internal/algebra"

// PlanHints carry the planner's per-operator execution hints into the
// evaluator. They are part of the physical plan the planner lowers
// (plan.Rewrite, plan.Lower) and the executor runs as given: a hinted
// plan returns the bytes of the same expression run unhinted, under the
// semantics it was lowered for —
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
//     nothing in the skipped subtree can mint marked nulls; never on a
//     selection the null lists serve (it would read all of R), on one
//     the view cache serves, or where Split applies.
//   - Split reads a hash-keyed build side in two parts (SplitBuild),
//     under SQL3VL only.
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
	// runtime falls back to an eager filter when no hash keys are
	// extracted.
	FuseBuild bool
	// Split, when set, is how a hash-keyed build side is read.
	Split *SplitBuild
}

// SplitBuild reads a build side σ[θ ∨ null(a) ∨ …](R) over a stored
// relation R in two disjoint parts ("No More Nulls!": hash the null-free
// part, scan the part with nulls): Cached, the selection σ[θ](R), which
// an earlier operator of the plan drains into the view cache, then R's
// rows on the null lists of Nulls, the columns a, …. θ compares each of
// them directly, so under SQL3VL it is unknown on a row with a null in
// one, and the two parts together are exactly the selection.
type SplitBuild struct {
	Cached algebra.Select
	Nulls  []int
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
