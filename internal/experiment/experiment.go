// Package experiment contains the drivers that regenerate every table
// and figure of the paper's evaluation:
//
//   - Figure 1: average percentage of false positives per query as the
//     null rate grows (Section 4);
//   - the Section 5 observation that the legacy translation of
//     [Libkin, TODS 2016] is infeasible already on tiny instances;
//   - Figure 4: relative performance t⁺/t of the translated queries at
//     null rates 1–5% (Section 7);
//   - Table 1: ranges of relative performance across instance sizes;
//   - the precision and recall measurements of Section 7;
//   - the Section 7 optimizer discussion (plan costs with and without
//     OR-splitting).
//
// Every experiment but Section 5's runs the queries through the facade, as
// prepared statements: the query as written for Q, and SELECT CERTAIN
// for its translation Q⁺. The legacy translation is not a facade route,
// so Section 5 evaluates it directly.
//
// Absolute timings obviously differ from the paper's PostgreSQL-on-
// hardware setup; what the drivers reproduce is the *shape* of each
// result: who wins, by what order of magnitude, and how it trends.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/tpch"
)

// DefaultLimits is the single governed budget every experiment runner
// evaluates under (previously a `MaxRows: 2_000_000` literal scattered
// across the drivers): enough headroom for every measured configuration,
// small enough that a runaway plan degrades with a typed budget error
// instead of exhausting memory. Callers override it per run via each
// config's Limits field.
var DefaultLimits = guard.Limits{MaxRows: 2_000_000}

// budgetTripped reports whether err is a resource-budget trip (and not,
// e.g., cancellation, which never counts as a tolerable trip).
func budgetTripped(err error) bool { return errors.Is(err, guard.ErrBudget) }

// PaperNullRatesFig1 are the null rates of Figure 1: 0.5%–6% in steps
// of 0.5% and 6%–10% in steps of 1%.
func PaperNullRatesFig1() []float64 {
	var out []float64
	for r := 0.005; r < 0.0601; r += 0.005 {
		out = append(out, r)
	}
	for r := 0.07; r < 0.101; r += 0.01 {
		out = append(out, r)
	}
	return out
}

// PaperNullRatesFig4 are the null rates of Figure 4: 1%–5% in steps of 1%.
func PaperNullRatesFig4() []float64 {
	return []float64{0.01, 0.02, 0.03, 0.04, 0.05}
}

// Route is one of the two ways the facade executes a statement, which
// Figure 4 and Table 1 report side by side. Answers never depend on the
// route: the planner's rewrites preserve results byte for byte.
type Route int

const (
	// PaperRoute runs the plan exactly as translation produced it
	// (Options.NaivePlanner): the configuration the paper measured. The
	// ablation and the OR-split study run on it, because the planner
	// would rescue the raw translations they exist to show.
	PaperRoute Route = iota
	// DefaultRoute is what certsqld serves: the cost-based planner on.
	DefaultRoute
)

// Routes lists both routes in measurement and rendering order.
var Routes = [...]Route{PaperRoute, DefaultRoute}

// String names the route.
func (r Route) String() string { return [...]string{"paper", "default"}[r] }

// options returns the route's facade options, executing at par workers
// (0 = GOMAXPROCS, 1 = sequential) under the limits of a config's Limits
// field (zero = DefaultLimits). Every execution builds a fresh governor
// from them.
func (r Route) options(par int, l guard.Limits) certsql.Options {
	if l == (guard.Limits{}) {
		l = DefaultLimits
	}
	return certsql.Options{
		NaivePlanner: r == PaperRoute,
		Parallelism:  par,
		MaxRows:      l.MaxRows,
		MaxCostUnits: l.MaxCostUnits,
		MaxMemBytes:  l.MaxMemBytes,
	}
}

// statements prepares query qid on db as written, Q, and as its
// certain-answer translation Q⁺ (SELECT CERTAIN).
func statements(db *certsql.DB, qid tpch.QueryID) (orig, plus *certsql.Prepared, err error) {
	certain, err := certsql.WithMode(qid.SQL(), "certain")
	if err != nil {
		return nil, nil, err
	}
	if orig, err = db.Prepare(qid.SQL()); err != nil {
		return nil, nil, err
	}
	plus, err = db.Prepare(certain)
	return orig, plus, err
}

// execute runs p once and returns its result and wall time.
func execute(ctx context.Context, p *certsql.Prepared, params certsql.Params, opts certsql.Options) (*certsql.Result, time.Duration, error) {
	start := time.Now()
	res, err := p.ExecuteWithOptionsContext(ctx, params, opts)
	return res, time.Since(start), err
}

// Figure1Config configures the false-positive experiment.
type Figure1Config struct {
	// NullRates to test; nil means the paper's Figure 1 rates.
	NullRates []float64
	// Instances per null rate (the paper uses 100).
	Instances int
	// ParamDraws per instance (the paper uses 5).
	ParamDraws int
	// Scale is the TPC-H scale factor; the paper scales the 1 GB
	// instance down by 10³ for this experiment.
	Scale float64
	// Seed makes the experiment deterministic.
	Seed int64
	// Queries to run; nil means Q1–Q4.
	Queries []tpch.QueryID
	// Parallelism is the executor worker count (0 = GOMAXPROCS,
	// 1 = sequential); measurements are over identical results.
	Parallelism int
	// Limits is the per-run resource budget (zero = DefaultLimits).
	Limits guard.Limits
	// TolerateBudget makes per-query budget trips non-fatal: the sample
	// is dropped, the trip is counted in the output row, and the
	// experiment continues. Without it a trip aborts the whole run with
	// a typed budget error. Cancellation always aborts.
	TolerateBudget bool
}

func (c *Figure1Config) defaults() {
	if c.NullRates == nil {
		c.NullRates = PaperNullRatesFig1()
	}
	if c.Instances == 0 {
		c.Instances = 5
	}
	if c.ParamDraws == 0 {
		c.ParamDraws = 5
	}
	if c.Scale == 0 {
		c.Scale = 0.001
	}
	if c.Queries == nil {
		c.Queries = tpch.AllQueries
	}
}

// Figure1Row is one point of Figure 1: the average percentage of
// detected false positives per query at one null rate.
type Figure1Row struct {
	NullRate  float64
	FPPercent map[tpch.QueryID]float64
	// Executions with a non-empty answer, per query (the denominator).
	Samples map[tpch.QueryID]int
	// BudgetTrips counts runs dropped because they exceeded the
	// resource budget (only with Figure1Config.TolerateBudget).
	BudgetTrips map[tpch.QueryID]int
}

// Figure1 reproduces Figure 1: SQL-evaluate Q1–Q4 on instances with
// increasing null rates and measure, via the detection algorithms of
// Section 4, the fraction of answers that are provably false positives.
// The queries run on the default route. Cancellation or deadline expiry
// of ctx aborts with a typed error.
func Figure1(ctx context.Context, cfg Figure1Config) ([]Figure1Row, error) {
	cfg.defaults()
	opts := DefaultRoute.options(cfg.Parallelism, cfg.Limits)
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := tpch.Generate(tpch.Config{ScaleFactor: cfg.Scale, Seed: cfg.Seed})
	sizes := tpch.Config{ScaleFactor: cfg.Scale}.Sizes()

	var out []Figure1Row
	for _, rate := range cfg.NullRates {
		row := Figure1Row{
			NullRate:    rate,
			FPPercent:   map[tpch.QueryID]float64{},
			Samples:     map[tpch.QueryID]int{},
			BudgetTrips: map[tpch.QueryID]int{},
		}
		sum := map[tpch.QueryID]float64{}
		for inst := 0; inst < cfg.Instances; inst++ {
			db := base.Clone()
			tpch.InjectNulls(db, rate, rng)
			fdb := certsql.FromInternal(db)
			for _, qid := range cfg.Queries {
				stmt, _, err := statements(fdb, qid)
				if err != nil {
					return nil, err
				}
				for d := 0; d < cfg.ParamDraws; d++ {
					params := qid.Params(rng, sizes)
					res, _, err := execute(ctx, stmt, params, opts)
					if err != nil {
						if cfg.TolerateBudget && budgetTripped(err) {
							row.BudgetTrips[qid]++
							continue
						}
						return nil, fmt.Errorf("fig1 %s: %w", qid, err)
					}
					if res.Len() == 0 {
						continue
					}
					detect := tpch.DetectorFor(qid)(db, params)
					fp := 0
					for _, r := range res.Rows() {
						if detect(r) {
							fp++
						}
					}
					sum[qid] += 100 * float64(fp) / float64(res.Len())
					row.Samples[qid]++
				}
			}
		}
		for _, qid := range cfg.Queries {
			if n := row.Samples[qid]; n > 0 {
				row.FPPercent[qid] = sum[qid] / float64(n)
			}
		}
		out = append(out, row)
	}
	return out, nil
}
