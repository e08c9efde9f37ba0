package eval

import (
	"fmt"
	"strings"
)

// traceEntry is one line of an EXPLAIN ANALYZE-style trace.
type traceEntry struct {
	depth int
	text  string
}

// note records a trace line when tracing is enabled.
func (ev *Evaluator) note(format string, args ...any) {
	if !ev.opts.Trace {
		return
	}
	ev.trace = append(ev.trace, traceEntry{depth: ev.depth, text: fmt.Sprintf(format, args...)})
}

// Trace returns the recorded plan trace (empty unless Options.Trace was
// set). Entries appear in completion order with their nesting depth.
func (ev *Evaluator) Trace() string {
	var b strings.Builder
	for _, e := range ev.trace {
		d := e.depth
		if d < 0 {
			d = 0
		}
		b.WriteString(strings.Repeat("  ", d))
		b.WriteString(e.text)
		b.WriteByte('\n')
	}
	return b.String()
}

// Report summarizes the executed plan: strategy counts and total cost
// units. It mirrors the way the paper discusses plans — hash versus
// nested-loop joins and their estimated costs.
func (ev *Evaluator) Report() string { return ev.stats.Summary() }

// Summary renders the counters on one line.
func (s Stats) Summary() string {
	out := fmt.Sprintf("cost=%d units, hash joins=%d, nested loops=%d, short circuits=%d, cache hits=%d",
		s.CostUnits, s.HashJoins, s.NestedLoopJoins, s.ShortCircuits, s.CacheHits)
	if s.UnifyJoins > 0 {
		out += fmt.Sprintf(", unify joins=%d", s.UnifyJoins)
	}
	if s.PlanCacheHits > 0 || s.PlanCacheMisses > 0 {
		out += fmt.Sprintf(", plan cache hits=%d misses=%d", s.PlanCacheHits, s.PlanCacheMisses)
	}
	return out
}
