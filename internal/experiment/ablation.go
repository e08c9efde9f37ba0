package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/sql"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// AblationConfig configures the design-decision ablation study: each of
// the optimizations DESIGN.md §5 calls out is disabled in turn and the
// translated queries re-timed against the fully optimized pipeline.
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

// ablationVariants lists the translator/executor knobs under study.
var ablationVariants = []struct {
	name string
	tr   func(*certain.Translator)
	opts func(*eval.Options)
}{
	{"no-orsplit", func(t *certain.Translator) { t.SplitOrs = false }, nil},
	{"no-simplify", func(t *certain.Translator) { t.SimplifyNulls = false }, nil},
	{"no-keysimplify", func(t *certain.Translator) { t.KeySimplify = false }, nil},
	{"no-viewcache", nil, func(o *eval.Options) { o.NoSubplanCache = true }},
	{"no-shortcircuit", nil, func(o *eval.Options) { o.NoShortCircuit = true }},
	{"no-hashjoin", nil, func(o *eval.Options) { o.NoHashJoin = true }},
}

// Ablation measures the cost of disabling each optimization on the
// translated queries Q⁺1–Q⁺4. Cancellation or deadline expiry of ctx
// aborts with a typed error.
func Ablation(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg.defaults()
	db := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed, NullRate: cfg.NullRate})
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()

	var out []AblationRow
	for _, qid := range cfg.Queries {
		params := qid.Params(rng, sizes)
		q, err := sql.Parse(qid.SQL())
		if err != nil {
			return nil, err
		}
		compiled, err := compile.Compile(q, db.Schema, params)
		if err != nil {
			return nil, err
		}

		// Build all plans up front, then interleave the timed runs
		// round-robin and keep per-variant minima: temporal noise (GC,
		// CPU steal on shared machines) then hits all variants alike
		// instead of whichever happened to run first.
		type plan struct {
			name string
			expr algebra.Expr
			opts eval.Options
		}
		plans := []plan{{name: "base", expr: DefaultTranslator(db).Plus(compiled.Expr),
			opts: eval.Options{Semantics: value.SQL3VL, Parallelism: cfg.Parallelism}}}
		for _, v := range ablationVariants {
			tr := DefaultTranslator(db)
			if v.tr != nil {
				v.tr(tr)
			}
			opts := eval.Options{Semantics: value.SQL3VL, Parallelism: cfg.Parallelism}
			if v.opts != nil {
				v.opts(&opts)
			}
			plans = append(plans, plan{name: v.name, expr: tr.Plus(compiled.Expr), opts: opts})
		}

		best := map[string]time.Duration{}
		cost := map[string]int64{}
		failed := map[string]bool{}
		for round := 0; round <= cfg.Repeats; round++ {
			for _, p := range plans {
				if failed[p.name] {
					continue
				}
				runtime.GC()
				// A fresh governor per timed run: budgets are per
				// evaluation, and the shared ctx still cancels them all.
				p.opts.Governor = guard.New(ctx, limitsOrDefault(cfg.Limits))
				ev := eval.New(db, p.opts)
				start := time.Now()
				if _, err := ev.Eval(p.expr); err != nil {
					if budgetTripped(err) {
						failed[p.name] = true
						continue
					}
					return nil, fmt.Errorf("ablation %s %s: %w", qid, p.name, err)
				}
				elapsed := time.Since(start)
				cost[p.name] = ev.Stats().CostUnits // the same every round
				if round == 0 {
					continue // warmup round, untimed
				}
				if cur, ok := best[p.name]; !ok || elapsed < cur {
					best[p.name] = elapsed
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

// RenderAblation renders the ablation study as a text table.
func RenderAblation(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations — slowdown of Q+ when one optimization is disabled (1.0 = no effect)\n")
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
			fmt.Fprintf(&b, "%16.2f", r.Factor[v.name])
		}
		b.WriteString("\n")
	}
	return b.String()
}
