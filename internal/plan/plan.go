// Package plan is the cost-based planner. It sits between translation
// (internal/certain producing Q⁺/Q⋆ algebra) and evaluation
// (internal/eval): it rewrites plans from the schema's nullability
// (internal/analyze), lowers the result to the one physical plan the
// executor runs, and prices that plan for EXPLAIN with the counts the
// tables hold (Describe).
//
// The planner's contract is strict: an optimized plan must produce a
// byte-identical result table to the paper-faithful naive plan, under
// both semantics, at any parallelism. difftest's planner-ablation
// invariant enforces this over seeded generated databases. The
// contract shapes every rule:
//
//   - Rules never reorder the rows any operator emits. Join-order
//     selection therefore stays in the runtime's greedy equi-join
//     planner (which sees exact cardinalities); the planner costs it
//     for EXPLAIN but does not override it.
//   - Rules never fire on conditions containing scalar subqueries, and
//     rules that can change which subtrees are evaluated (or how
//     often) never fire when the subtrees mint fresh marked nulls
//     (GroupBy aggregates over empty groups), since mark identities
//     appear in the output bytes.
//   - Rules rely only on the query and the schema, never on the
//     current data: a plan is sound on every database of the schema,
//     so a cached plan needs no re-check when the data changes.
//   - Rewrite reads nothing else either: anti-split's cost gate prices
//     both plans with the data-free estimates (defaultRows and default
//     null rates), so the same query and schema always give the same
//     plan. This holds by type: the optimizer has no field that reaches
//     a table. Only Describe, which prices the EXPLAIN tree, is handed
//     the database.
//
// The physical lowering (Lower, and the last step of Rewrite) runs on
// both routes and makes the decisions the executor used to make at run
// time, from the expression, the semantics and whether the view cache
// is on: it drops the const() guards SQL3VL makes redundant, reads a
// build side whose null-free part the probe side caches in two parts,
// and attaches the executor's hints and the view cache's Views. The
// executor runs the lowered plan as given; difftest's lowering
// invariant holds it to the bytes of the unlowered expression.
package plan

import (
	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/stats"
	"certsql/internal/table"
)

// RuleKind identifies one planner rule. tools/vetcert checks that any
// switch over RuleKind names every Rule* constant.
type RuleKind uint8

// Planner rule kinds.
const (
	// RulePushdownSelect moves a selection below Project, Distinct,
	// Union, Diff, Intersect and (anti-)semijoin operators so filters
	// run on fewer or narrower rows.
	RulePushdownSelect RuleKind = iota
	// RuleMergeSelect fuses adjacent selections into one conjunction,
	// saving a filter pass.
	RuleMergeSelect
	// RuleNullTestElim removes IS NULL / IS NOT NULL tests on columns
	// that NOT NULL declarations prove null-free (analyze.NonNullCols).
	// This is the 2VL
	// simplification that turns the paper's Section 7 hash-hostile
	// `A = B OR B IS NULL` conditions back into plain equalities.
	RuleNullTestElim
	// RuleAntiSplit partitions an antijoin's right side on its
	// IS NULL disjuncts: L ▷[(θ∨ρ)∧rest] R becomes two antijoins over
	// σρ(R) and σ¬ρ(R) whose conditions are free of the disjunction,
	// re-enabling hash keys and short circuits.
	RuleAntiSplit
	// RuleProjectCollapse composes adjacent projections.
	RuleProjectCollapse
	// RuleSlimVerify drops extracted hash-key equalities from a
	// semijoin's per-candidate verify condition (bucket co-membership
	// already proves them).
	RuleSlimVerify
	// RuleFuseBuild filters a semijoin's select-fed build side during
	// the hash build itself, skipping the filtered intermediate.
	RuleFuseBuild
)

// RuleKinds lists every rule kind, in declaration order.
var RuleKinds = []RuleKind{
	RulePushdownSelect, RuleMergeSelect, RuleNullTestElim, RuleAntiSplit,
	RuleProjectCollapse, RuleSlimVerify, RuleFuseBuild,
}

// String returns the rule's stable lower-case name, used in EXPLAIN
// output and golden files.
func (k RuleKind) String() string {
	switch k {
	case RulePushdownSelect:
		return "pushdown-select"
	case RuleMergeSelect:
		return "merge-select"
	case RuleNullTestElim:
		return "null-test-elim"
	case RuleAntiSplit:
		return "anti-split"
	case RuleProjectCollapse:
		return "project-collapse"
	case RuleSlimVerify:
		return "slim-verify"
	case RuleFuseBuild:
		return "fuse-build"
	default:
		return "unknown-rule"
	}
}

// Premise is never built: plans depend only on the query and the
// schema. It is kept only because bench/ names it; ROADMAP item 1
// deletes it.
type Premise struct{}

// CheckPremises returns true. It is kept only because bench/ names it;
// ROADMAP item 1 deletes it.
func CheckPremises([]Premise, *stats.DBStats) bool { return true }

// Result is an optimized plan: the rewritten expression, the execution
// hints for its operators, the rules that fired, and (from Optimize)
// the costed EXPLAIN tree.
type Result struct {
	// Expr is the rewritten expression. When Changed is false it is
	// the input expression unchanged.
	Expr algebra.Expr
	// Hints are the per-operator execution hints (nil when none).
	Hints *eval.PlanHints
	// Premises is always nil; see Premise.
	Premises []Premise
	// Fired lists the distinct rule kinds that fired, in declaration
	// order.
	Fired []RuleKind
	// Explain is the costed plan tree for the rewritten expression;
	// Rewrite leaves it nil.
	Explain *ExplainNode
	// Changed reports whether any rewrite or hint was produced.
	Changed bool
}

// Rewrite rewrites e under the byte-identity contract and lowers the
// result for ph (Lower): the one physical plan execution runs, with its
// hints. It reads only e, sch (types and nullability) and ph; gov
// carries the fault site guard.SitePlanRewrite (nil allowed). This is
// the half of planning that execution runs, once per plan.
func Rewrite(e algebra.Expr, sch *schema.Schema, ph Physical, gov *guard.Governor) (*Result, error) {
	if err := gov.Fault(guard.SitePlanRewrite); err != nil {
		return nil, err
	}
	o := &optimizer{sch: sch, fired: map[RuleKind]bool{}}
	rewritten := o.rewrite(e)
	res := (&lowerer{Physical: ph, root: rewritten, hinted: true, fired: o.fired}).result(rewritten)
	for _, k := range RuleKinds {
		if o.fired[k] {
			res.Fired = append(res.Fired, k)
		}
	}
	res.Changed = res.Changed || len(res.Fired) > 0
	return res, nil
}

// Optimize is Rewrite for the default setting (SQL3VL, view cache on)
// plus the plan's EXPLAIN tree, described with no data. It ignores st,
// and is kept only because bench/ names it; ROADMAP item 1 deletes it.
func Optimize(e algebra.Expr, sch *schema.Schema, st *stats.DBStats, gov *guard.Governor) (*Result, error) {
	res, err := Rewrite(e, sch, Physical{}, gov)
	if err != nil {
		return nil, err
	}
	res.Explain = Describe(res.Expr, res.Hints, sch, nil)
	return res, nil
}

// Describe costs e, annotated with hints (nil allowed), without
// rewriting it — the EXPLAIN tree of a planned expression. It prices
// with Rewrite's data-free estimates, refined by what db's tables hold
// exactly (nil db: none): a relation's rows, a stored column's null
// lists, and a single-column primary key's rows as its distinct count.
func Describe(e algebra.Expr, hints *eval.PlanHints, sch *schema.Schema, db *table.Database) *ExplainNode {
	d := &describer{sch: sch, db: db}
	if hints != nil && hints.Views != nil && !hints.Views.NoHits {
		d.drained = map[string]bool{}
	}
	return d.describe(e, hints)
}
