package experiment

import (
	"context"
	"fmt"
	"math/rand"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// Figure4Config configures the price-of-correctness experiment.
type Figure4Config struct {
	// NullRates to test; nil means 1%–5% as in Figure 4.
	NullRates []float64
	// Instances per null rate (the paper uses 10).
	Instances int
	// ParamDraws per instance (the paper uses 5).
	ParamDraws int
	// Repeats per query instance (the paper uses 3).
	Repeats int
	// Scale is the TPC-H scale factor of the "1 GB-equivalent"
	// instance for this reproduction.
	Scale float64
	// Seed makes the experiment deterministic.
	Seed int64
	// Queries to run; nil means Q1–Q4.
	Queries []tpch.QueryID
	// NoOrSplit measures the raw Section 7 translation, its `A = B OR
	// B IS NULL` disjunctions left intact, instead of the OR-split one.
	NoOrSplit bool
	// Parallelism is the executor worker count (0 = GOMAXPROCS,
	// 1 = sequential). Both t and t⁺ run at the same setting, so the
	// reported ratios stay comparable.
	Parallelism int
	// Limits is the per-run resource budget (zero = DefaultLimits).
	Limits guard.Limits
	// TolerateBudget makes per-query budget trips non-fatal: the sample
	// is dropped, the trip counted in the output row, and the run
	// continues. Cancellation always aborts.
	TolerateBudget bool
}

func (c *Figure4Config) defaults() {
	if c.NullRates == nil {
		c.NullRates = PaperNullRatesFig4()
	}
	if c.Instances == 0 {
		c.Instances = 3
	}
	if c.ParamDraws == 0 {
		c.ParamDraws = 3
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Scale == 0 {
		c.Scale = 0.002
	}
	if c.Queries == nil {
		c.Queries = tpch.AllQueries
	}
}

// Figure4Row is one point of Figure 4 on both routes: the average
// relative performance t⁺/t per query at one null rate (below 1 means
// the correct query is faster).
type Figure4Row struct {
	NullRate float64
	// RelPerf, indexed by Route, maps each query to its t⁺/t.
	RelPerf [len(Routes)]map[tpch.QueryID]float64
	// RelCost, indexed by Route, is the timing-free counterpart of
	// RelPerf: the sum of Stats.CostUnits over the Q⁺ runs divided by
	// the sum over the Q runs of the same pairs. It is an exact count —
	// the same config gives the same value on every machine and at any
	// Parallelism.
	RelCost [len(Routes)]map[tpch.QueryID]float64
	// BudgetTrips counts samples dropped, on both routes, because a run
	// of either side exceeded the resource budget (only with
	// Figure4Config.TolerateBudget).
	BudgetTrips map[tpch.QueryID]int
}

// Figure4 reproduces Figure 4: run each query and its Q⁺ translation on
// instances with null rates 1%–5% and report the ratio of their running
// times, averaged over instances, parameter draws and repeats, on both
// routes. Each statement runs once untimed on the default route first,
// so that the planner's first-use planning is in neither t nor t⁺; the timed repeats then alternate the routes.
// Cancellation or deadline expiry of ctx aborts with a typed error.
func Figure4(ctx context.Context, cfg Figure4Config) ([]Figure4Row, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed})
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()
	var opts [len(Routes)]certsql.Options
	for _, r := range Routes {
		opts[r] = r.options(cfg.Parallelism, cfg.Limits)
		opts[r].NoOrSplit = cfg.NoOrSplit
	}

	var out []Figure4Row
	for _, rate := range cfg.NullRates {
		row := Figure4Row{NullRate: rate, BudgetTrips: map[tpch.QueryID]int{}}
		for _, r := range Routes {
			row.RelPerf[r], row.RelCost[r] = map[tpch.QueryID]float64{}, map[tpch.QueryID]float64{}
		}
		samples := map[tpch.QueryID]int{}
		costs := map[tpch.QueryID][len(Routes)][2]float64{} // [route][original, translated]
		for inst := 0; inst < cfg.Instances; inst++ {
			db := base.Clone()
			tpch.InjectNulls(db, rate, rng)
			fdb := certsql.FromInternal(db)
			for _, qid := range cfg.Queries {
				orig, plus, err := statements(fdb, qid)
				if err != nil {
					return nil, fmt.Errorf("fig4 %s: %w", qid, err)
				}
				for d := 0; d < cfg.ParamDraws; d++ {
					params := qid.Params(rng, sizes)
					t, c, err := measure(ctx, [2]*certsql.Prepared{orig, plus}, params, opts, cfg.Repeats)
					if err != nil {
						if cfg.TolerateBudget && budgetTripped(err) {
							row.BudgetTrips[qid]++
							continue
						}
						return nil, fmt.Errorf("fig4 %s: %w", qid, err)
					}
					if t[PaperRoute][0] == 0 || t[DefaultRoute][0] == 0 {
						continue
					}
					samples[qid]++
					sum := costs[qid]
					for _, r := range Routes {
						row.RelPerf[r][qid] += t[r][1] / t[r][0]
						sum[r][0], sum[r][1] = sum[r][0]+c[r][0], sum[r][1]+c[r][1]
					}
					costs[qid] = sum
				}
			}
		}
		for qid, n := range samples {
			for _, r := range Routes {
				row.RelPerf[r][qid] /= float64(n)
				row.RelCost[r][qid] = costs[qid][r][1] / costs[qid][r][0]
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// measure runs the pair (Q, Q⁺) once untimed on the default route, then
// repeats times on each route in turn, and returns per route and side
// the summed wall time and cost units of the timed runs.
func measure(ctx context.Context, pair [2]*certsql.Prepared, params certsql.Params, opts [len(Routes)]certsql.Options, repeats int) (t, c [len(Routes)][2]float64, err error) {
	for rep := -1; rep < repeats; rep++ {
		for _, r := range Routes {
			if rep < 0 && r != DefaultRoute {
				continue
			}
			for side, stmt := range pair {
				res, dt, err := execute(ctx, stmt, params, opts[r])
				if err != nil {
					return t, c, err
				}
				if rep >= 0 {
					t[r][side] += float64(dt)
					c[r][side] += float64(res.Stats.CostUnits)
				}
			}
		}
	}
	return t, c, nil
}

// Table1Config configures the instance-size scaling experiment.
type Table1Config struct {
	// ScaleMultipliers relative to BaseScale; nil means {1, 3, 6, 10},
	// the paper's 1/3/6/10 GB instances.
	ScaleMultipliers []float64
	// BaseScale is the scale factor of the "1 GB-equivalent" instance.
	BaseScale float64
	// NullRates as in Figure 4 (1%–5%); ranges are taken across them.
	NullRates []float64
	// Seed makes the experiment deterministic.
	Seed int64
	// ParamDraws per size and rate.
	ParamDraws int
	// Queries to run; nil means Q1–Q4.
	Queries []tpch.QueryID
	// Parallelism is the executor worker count, forwarded to the
	// underlying Figure 4 runs.
	Parallelism int
	// Limits is the per-run resource budget (zero = DefaultLimits);
	// TolerateBudget tolerates and counts per-query budget trips. Both
	// forward to the underlying Figure 4 runs.
	Limits         guard.Limits
	TolerateBudget bool
}

func (c *Table1Config) defaults() {
	if c.ScaleMultipliers == nil {
		c.ScaleMultipliers = []float64{1, 3, 6, 10}
	}
	if c.BaseScale == 0 {
		c.BaseScale = 0.002
	}
	if c.NullRates == nil {
		c.NullRates = PaperNullRatesFig4()
	}
	if c.ParamDraws == 0 {
		c.ParamDraws = 2
	}
	if c.Queries == nil {
		c.Queries = tpch.AllQueries
	}
}

// Table1Row is one cell range of Table 1 on both routes: the min–max of
// average relative performance for one query at one instance size.
type Table1Row struct {
	Multiplier float64
	// Min and Max are indexed by Route.
	Min, Max [len(Routes)]map[tpch.QueryID]float64
	// BudgetTrips aggregates the dropped samples of the underlying
	// Figure 4 runs (only with Table1Config.TolerateBudget).
	BudgetTrips map[tpch.QueryID]int
}

// Table1 reproduces Table 1: ranges of relative performance t⁺/t as the
// instance grows. Cancellation or deadline expiry of ctx aborts with a
// typed error.
func Table1(ctx context.Context, cfg Table1Config) ([]Table1Row, error) {
	cfg.defaults()
	var out []Table1Row
	for _, mult := range cfg.ScaleMultipliers {
		rows, err := Figure4(ctx, Figure4Config{
			NullRates:      cfg.NullRates,
			Instances:      1,
			ParamDraws:     cfg.ParamDraws,
			Repeats:        2,
			Scale:          cfg.BaseScale * mult,
			Seed:           cfg.Seed + int64(mult*1000),
			Queries:        cfg.Queries,
			Parallelism:    cfg.Parallelism,
			Limits:         cfg.Limits,
			TolerateBudget: cfg.TolerateBudget,
		})
		if err != nil {
			return nil, err
		}
		t1 := Table1Row{Multiplier: mult, BudgetTrips: map[tpch.QueryID]int{}}
		for _, r := range rows {
			for q, n := range r.BudgetTrips {
				t1.BudgetTrips[q] += n
			}
		}
		for _, route := range Routes {
			lo, hi := map[tpch.QueryID]float64{}, map[tpch.QueryID]float64{}
			for _, r := range rows {
				for q, v := range r.RelPerf[route] {
					if cur, ok := lo[q]; !ok || v < cur {
						lo[q] = v
					}
					if cur, ok := hi[q]; !ok || v > cur {
						hi[q] = v
					}
				}
			}
			t1.Min[route], t1.Max[route] = lo, hi
		}
		out = append(out, t1)
	}
	return out, nil
}

// RecallResult reports the recall measurement of Section 7 for one
// query: among the certain answers that standard SQL evaluation
// returned (i.e. its answers minus the detected false positives), the
// fraction also returned by Q⁺. The paper observes 100% everywhere.
type RecallResult struct {
	Query tpch.QueryID
	// CertainReturned is the number of SQL answers not detected as
	// false positives, summed over all runs.
	CertainReturned int
	// Recalled is how many of those Q⁺ returned.
	Recalled int
	// FalsePositives is the number of detected false positives among
	// SQL answers (all of which Q⁺ must avoid).
	FalsePositives int
	// LeakedFalsePositives counts detected false positives that Q⁺
	// returned — must be zero.
	LeakedFalsePositives int
	// BudgetTrips counts samples dropped because either evaluation
	// exceeded the resource budget (only with RecallConfig.TolerateBudget).
	BudgetTrips int
}

// Recall returns CertainReturned == Recalled as a percentage.
func (r RecallResult) Recall() float64 {
	if r.CertainReturned == 0 {
		return 100
	}
	return 100 * float64(r.Recalled) / float64(r.CertainReturned)
}

// RecallConfig configures the recall experiment.
type RecallConfig struct {
	Scale      float64
	NullRate   float64
	Instances  int
	ParamDraws int
	Seed       int64
	Queries    []tpch.QueryID
	// Parallelism is the executor worker count (0 = GOMAXPROCS,
	// 1 = sequential); results are identical at any setting.
	Parallelism int
	// Limits is the per-run resource budget (zero = DefaultLimits).
	Limits guard.Limits
	// TolerateBudget tolerates and counts per-query budget trips
	// instead of aborting the experiment.
	TolerateBudget bool
}

func (c *RecallConfig) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.001
	}
	if c.NullRate == 0 {
		c.NullRate = 0.03
	}
	if c.Instances == 0 {
		c.Instances = 5
	}
	if c.ParamDraws == 0 {
		c.ParamDraws = 5
	}
	if c.Queries == nil {
		c.Queries = tpch.AllQueries
	}
}

// Recall reproduces the Section 7 recall measurement on small
// DataFiller-style instances: Q⁺ must return precisely the SQL answers
// minus the detected false positives. Both run on the default route.
// Cancellation or deadline expiry of ctx aborts with a typed error.
func Recall(ctx context.Context, cfg RecallConfig) ([]RecallResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed})
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()

	opts := DefaultRoute.options(cfg.Parallelism, cfg.Limits)

	results := map[tpch.QueryID]*RecallResult{}
	for _, qid := range cfg.Queries {
		results[qid] = &RecallResult{Query: qid}
	}
	for inst := 0; inst < cfg.Instances; inst++ {
		db := base.Clone()
		tpch.InjectNulls(db, cfg.NullRate, rng)
		fdb := certsql.FromInternal(db)
		for _, qid := range cfg.Queries {
			orig, plus, err := statements(fdb, qid)
			if err != nil {
				return nil, err
			}
			for d := 0; d < cfg.ParamDraws; d++ {
				params := qid.Params(rng, sizes)
				sqlRes, _, err := execute(ctx, orig, params, opts)
				var plusRes *certsql.Result
				if err == nil {
					plusRes, _, err = execute(ctx, plus, params, opts)
				}
				if err != nil {
					if cfg.TolerateBudget && budgetTripped(err) {
						results[qid].BudgetTrips++
						continue
					}
					return nil, err
				}
				plusKeys := plusRes.Table().KeySet()
				detect := tpch.DetectorFor(qid)(db, params)
				r := results[qid]
				for _, row := range sqlRes.Rows() {
					_, inPlus := plusKeys[value.RowKey(row)]
					if detect(row) {
						r.FalsePositives++
						if inPlus {
							r.LeakedFalsePositives++
						}
						continue
					}
					r.CertainReturned++
					if inPlus {
						r.Recalled++
					}
				}
			}
		}
	}
	out := make([]RecallResult, 0, len(cfg.Queries))
	for _, qid := range cfg.Queries {
		out = append(out, *results[qid])
	}
	return out, nil
}
