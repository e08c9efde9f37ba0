package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"certsql/internal/compile"
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

// Figure4Row is one point of Figure 4: the average relative performance
// t⁺/t per query at one null rate (below 1 means the correct query is
// faster).
type Figure4Row struct {
	NullRate float64
	RelPerf  map[tpch.QueryID]float64
	// RelCost is the timing-free counterpart of RelPerf: the sum of
	// Stats.CostUnits over the Q⁺ runs divided by the sum over the Q
	// runs of the same pairs. It is an exact count — the same config
	// gives the same value on every machine and at any Parallelism.
	RelCost map[tpch.QueryID]float64
	// BudgetTrips counts samples dropped because either side of the
	// t⁺/t pair exceeded the resource budget (only with
	// Figure4Config.TolerateBudget).
	BudgetTrips map[tpch.QueryID]int
}

// Figure4 reproduces Figure 4: run each query and its Q⁺ translation on
// instances with null rates 1%–5% and report the ratio of their running
// times, averaged over instances, parameter draws and repeats.
// Cancellation or deadline expiry of ctx aborts with a typed error.
func Figure4(ctx context.Context, cfg Figure4Config) ([]Figure4Row, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed})
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()

	var out []Figure4Row
	for _, rate := range cfg.NullRates {
		row := Figure4Row{NullRate: rate, RelPerf: map[tpch.QueryID]float64{}, RelCost: map[tpch.QueryID]float64{}, BudgetTrips: map[tpch.QueryID]int{}}
		sumRatio := map[tpch.QueryID]float64{}
		costOrig, costPlus := map[tpch.QueryID]int64{}, map[tpch.QueryID]int64{}
		samples := map[tpch.QueryID]int{}
		for inst := 0; inst < cfg.Instances; inst++ {
			db := base.Clone()
			tpch.InjectNulls(db, rate, rng)
			tr := DefaultTranslator(db)
			tr.SplitOrs = !cfg.NoOrSplit
			for _, qid := range cfg.Queries {
				for d := 0; d < cfg.ParamDraws; d++ {
					params := qid.Params(rng, sizes)
					orig, plus, err := Prepare(qid, db, params, tr)
					if err != nil {
						return nil, fmt.Errorf("fig4 %s: %w", qid, err)
					}
					var tOrig, tPlus time.Duration
					var cOrig, cPlus int64
					tripped := false
					for rep := 0; rep < cfg.Repeats && !tripped; rep++ {
						for _, side := range []struct {
							label string
							c     *compile.Compiled
							sum   *time.Duration
							cost  *int64
						}{{"original", orig, &tOrig, &cOrig}, {"translated", plus, &tPlus, &cPlus}} {
							_, dt, st, err := runOnce(ctx, db, side.c, cfg.Parallelism, cfg.Limits)
							if err != nil {
								if cfg.TolerateBudget && budgetTripped(err) {
									row.BudgetTrips[qid]++
									tripped = true
									break
								}
								return nil, fmt.Errorf("fig4 %s %s: %w", qid, side.label, err)
							}
							*side.sum += dt
							*side.cost += st.CostUnits
						}
					}
					if !tripped && tOrig > 0 {
						sumRatio[qid] += float64(tPlus) / float64(tOrig)
						samples[qid]++
						costOrig[qid] += cOrig
						costPlus[qid] += cPlus
					}
				}
			}
		}
		for _, qid := range cfg.Queries {
			if samples[qid] > 0 {
				row.RelPerf[qid] = sumRatio[qid] / float64(samples[qid])
				row.RelCost[qid] = float64(costPlus[qid]) / float64(costOrig[qid])
			}
		}
		out = append(out, row)
	}
	return out, nil
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

// Table1Row is one cell range of Table 1: the min–max of average
// relative performance for one query at one instance size.
type Table1Row struct {
	Multiplier float64
	Min, Max   map[tpch.QueryID]float64
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
		t1 := Table1Row{Multiplier: mult, Min: map[tpch.QueryID]float64{}, Max: map[tpch.QueryID]float64{}, BudgetTrips: map[tpch.QueryID]int{}}
		for _, qid := range cfg.Queries {
			for i, r := range rows {
				t1.BudgetTrips[qid] += r.BudgetTrips[qid]
				v, ok := r.RelPerf[qid]
				if !ok {
					continue
				}
				if i == 0 || v < t1.Min[qid] {
					t1.Min[qid] = v
				}
				if i == 0 || v > t1.Max[qid] {
					t1.Max[qid] = v
				}
			}
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
// minus the detected false positives. Cancellation or deadline expiry
// of ctx aborts with a typed error.
func Recall(ctx context.Context, cfg RecallConfig) ([]RecallResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed})
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()

	results := map[tpch.QueryID]*RecallResult{}
	for _, qid := range cfg.Queries {
		results[qid] = &RecallResult{Query: qid}
	}
	for inst := 0; inst < cfg.Instances; inst++ {
		db := base.Clone()
		tpch.InjectNulls(db, cfg.NullRate, rng)
		tr := DefaultTranslator(db)
		for _, qid := range cfg.Queries {
			detect := tpch.DetectorFor(qid)
			for d := 0; d < cfg.ParamDraws; d++ {
				params := qid.Params(rng, sizes)
				orig, plus, err := Prepare(qid, db, params, tr)
				if err != nil {
					return nil, err
				}
				sqlRes, _, _, err := runOnce(ctx, db, orig, cfg.Parallelism, cfg.Limits)
				if err != nil {
					if cfg.TolerateBudget && budgetTripped(err) {
						results[qid].BudgetTrips++
						continue
					}
					return nil, err
				}
				plusRes, _, _, err := runOnce(ctx, db, plus, cfg.Parallelism, cfg.Limits)
				if err != nil {
					if cfg.TolerateBudget && budgetTripped(err) {
						results[qid].BudgetTrips++
						continue
					}
					return nil, err
				}
				plusKeys := plusRes.KeySet()
				r := results[qid]
				for _, row := range sqlRes.Rows() {
					_, inPlus := plusKeys[rowKey(row)]
					if detect(db, params, row) {
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

func rowKey(row []value.Value) string { return value.RowKey(row) }
