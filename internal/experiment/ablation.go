package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/tpch"
)

// AblationConfig configures the design-decision ablation study: each of
// the optimizations DESIGN.md §5 calls out is disabled in turn and the
// translated queries re-timed against the fully optimized pipeline, all
// on the paper-faithful route.
type AblationConfig struct {
	Scale    float64
	NullRate float64
	Seed     int64
	// Repeats per measurement.
	Repeats int
	// Queries to run; nil means Q1–Q4.
	Queries []tpch.QueryID
	// Parallelism is the executor worker count used by every variant
	// (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Limits is the per-run resource budget (zero = DefaultLimits).
	// Variants that trip it are reported OVERBUDGET, which is the
	// study's point for some of them, so there is no TolerateBudget
	// knob here — only the base pipeline tripping is fatal.
	Limits guard.Limits
}

func (c *AblationConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.002
	}
	if c.NullRate == 0 {
		c.NullRate = 0.03
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Queries == nil {
		c.Queries = tpch.AllQueries
	}
}

// AblationRow reports, for one query, the slowdown factor each disabled
// optimization causes relative to the full pipeline (1.0 = no effect;
// Failed marks variants that exceeded the row budget).
type AblationRow struct {
	Query    tpch.QueryID
	BaseTime time.Duration
	// Factor maps variant name -> time(variant)/time(base).
	Factor map[string]float64
	// CostFactor maps variant name -> Stats.CostUnits(variant)/(base):
	// the same effect as Factor in exact row operations, identical on
	// every run and machine.
	CostFactor map[string]float64
	Failed     map[string]bool
}

// ablationVariant is one toggle under study: a facade option it sets.
type ablationVariant struct {
	name string
	set  func(*certsql.Options)
}

// ablationVariants lists the translator and executor toggles under
// study.
var ablationVariants = []ablationVariant{
	{"no-orsplit", func(o *certsql.Options) { o.NoOrSplit = true }},
	{"no-simplify", func(o *certsql.Options) { o.NoSimplifyNulls = true }},
	{"no-keysimplify", func(o *certsql.Options) { o.NoKeySimplify = true }},
	{"no-viewcache", func(o *certsql.Options) { o.NoViewCache = true }},
	{"no-shortcircuit", func(o *certsql.Options) { o.NoShortCircuit = true }},
	{"no-hashjoin", func(o *certsql.Options) { o.NoHashJoin = true }},
}

// Ablation measures the cost of disabling each optimization on the
// translated queries Q⁺1–Q⁺4. Cancellation or deadline expiry of ctx
// aborts with a typed error.
func Ablation(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg.defaults()
	db := certsql.FromInternal(tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed, NullRate: cfg.NullRate}))
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()
	paper := PaperRoute.options(cfg.Parallelism, cfg.Limits)
	variants := append([]ablationVariant{{"base", func(*certsql.Options) {}}}, ablationVariants...)

	var out []AblationRow
	for _, qid := range cfg.Queries {
		params := qid.Params(rng, sizes)
		_, plus, err := statements(db, qid)
		if err != nil {
			return nil, err
		}

		// Interleave the timed runs round-robin and keep per-variant
		// minima: temporal noise (GC, CPU steal on shared machines, a
		// variant's first run compiling its plan) then hits all variants
		// alike instead of whichever happened to run first.
		best := map[string]time.Duration{}
		cost := map[string]int64{}
		failed := map[string]bool{}
		for round := 0; round < cfg.Repeats; round++ {
			for _, v := range variants {
				if failed[v.name] {
					continue
				}
				opts := paper
				v.set(&opts)
				runtime.GC()
				res, elapsed, err := execute(ctx, plus, params, opts)
				if err != nil {
					if budgetTripped(err) {
						failed[v.name] = true
						continue
					}
					return nil, fmt.Errorf("ablation %s %s: %w", qid, v.name, err)
				}
				cost[v.name] = res.Stats.CostUnits // the same every round
				if cur, ok := best[v.name]; !ok || elapsed < cur {
					best[v.name] = elapsed
				}
			}
		}
		if failed["base"] {
			return nil, fmt.Errorf("ablation %s: base pipeline exceeded the budget", qid)
		}
		base := best["base"]
		row := AblationRow{Query: qid, BaseTime: base, Factor: map[string]float64{}, CostFactor: map[string]float64{}, Failed: failed}
		for _, v := range ablationVariants {
			if failed[v.name] {
				continue
			}
			if base > 0 {
				row.Factor[v.name] = float64(best[v.name]) / float64(base)
			}
			row.CostFactor[v.name] = float64(cost[v.name]) / float64(cost["base"])
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderAblation renders the ablation study as two text tables: the
// wall-clock slowdown factors, then the exact cost-unit factors.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	for i, title := range []string{
		"Ablations — slowdown of Q+ when one optimization is disabled (1.0 = no effect)",
		"the same in cost units of Q+ (exact count)",
	} {
		b.WriteString(title + "\n")
		b.WriteString("query   base-time   ")
		for _, v := range ablationVariants {
			fmt.Fprintf(&b, "%16s", v.name)
		}
		b.WriteString("\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-8s%10s   ", r.Query, r.BaseTime.Round(time.Microsecond))
			for _, v := range ablationVariants {
				if r.Failed[v.name] {
					b.WriteString("      OVERBUDGET")
					continue
				}
				fmt.Fprintf(&b, "%16.2f", [...]map[string]float64{r.Factor, r.CostFactor}[i][v.name])
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
