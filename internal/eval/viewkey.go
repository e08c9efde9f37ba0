package eval

import "certsql/internal/algebra"

// viewCacheMaxNodes bounds how large a subplan — measured in algebra
// operators plus condition nodes, scalar-subquery bodies included (see
// algebra.SizeAtMost) — may be and still participate in the
// shared-subplan (view) cache.
//
// Keying a subplan renders its canonical Key(), and the evaluator keys
// at every recursion level, so an uncapped policy re-renders each
// subtree once per ancestor: an O(size × depth) string-building cost
// paid on every execution, independent of the data. Cache hits, on the
// other hand, can only come from subtrees that appear more than once
// in the plan, and the Q⁺/Q⋆ translations duplicate only modest
// fragments (the largest repeated subplan across the study's appendix
// queries renders to 87 bytes). Skipping oversized subplans therefore
// keeps every profitable hit while dropping the quadratic rendering
// that dominated prepared-execution profiles.
const viewCacheMaxNodes = 24

// viewKey returns the subplan-cache key for e, or "" when e is too
// large to participate in the cache.
func viewKey(e algebra.Expr) string {
	if !algebra.SizeAtMost(e, viewCacheMaxNodes) {
		return ""
	}
	return e.Key()
}
