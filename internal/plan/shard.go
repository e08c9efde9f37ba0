package plan

import (
	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/stats"
)

// ShardHint, ShardResult and ShardPlan are not read by anything: the
// executor visits every keep loop's rows in input order and has no
// shard count to plan for. They are kept only because the benchmark
// module (bench/) still compiles against them.
type ShardHint = eval.ShardHint

// ShardResult is never built: ShardPlan returns nil.
type ShardResult struct {
	Hints    map[string]ShardHint
	Premises []Premise
}

// ShardPlan returns nil.
func ShardPlan(algebra.Expr, *stats.DBStats, int) *ShardResult { return nil }
