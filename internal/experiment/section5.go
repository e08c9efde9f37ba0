package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"certsql"
	"certsql/internal/algebra"
	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/sql"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// LegacyPoint is one measurement of the Section 5 experiment: the
// legacy Qt translation of [Libkin, TODS 2016] versus the Q⁺
// translation on a growing synthetic instance.
type LegacyPoint struct {
	// Rows is the per-relation instance size.
	Rows int
	// AdomSize is |adom(D)|, which the legacy translation exponentiates.
	AdomSize int
	// LegacyTime is the legacy Qt evaluation time; LegacyFailed is set
	// when it exceeded the row budget (the analogue of the paper's
	// out-of-memory failures below 10³ tuples). LegacyCost is the cost
	// units of a completed evaluation, and 0 for a failed one: the
	// charge a budget trip cuts short is no cost of the query.
	LegacyTime   time.Duration
	LegacyFailed bool
	LegacyCost   int64
	// PlusTime is the Q⁺ evaluation time on the same instance.
	PlusTime time.Duration
	PlusCost int64
}

// LegacyConfig configures the Section 5 experiment.
type LegacyConfig struct {
	// Sizes are the per-relation row counts to test.
	Sizes []int
	// NullRate for the synthetic instance.
	NullRate float64
	// MaxRows is the evaluator's row budget (the "memory" limit); zero
	// means the governed DefaultLimits row budget.
	MaxRows int
	// Seed makes the experiment deterministic.
	Seed int64
}

func (c *LegacyConfig) defaults() {
	if c.Sizes == nil {
		c.Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024}
	}
	if c.NullRate == 0 {
		c.NullRate = 0.05
	}
	if c.MaxRows == 0 {
		c.MaxRows = DefaultLimits.MaxRows
	}
}

// syntheticSchema builds the two-column difference workload
// R(a, b) − S(a, b) used to chart the legacy translation's blow-up
// (the full TPC-H Q3 is hopeless for it from the first row: its Qf side
// needs adom^9 for the orders relation — see LegacyOnQ3).
func syntheticSchema() *schema.Schema {
	s := schema.New()
	for _, name := range []string{"r", "s"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt, Nullable: true},
			{Name: "b", Type: value.KindInt, Nullable: true},
		}})
	}
	return s
}

// LegacyBlowup measures the legacy translation against Q⁺ on the
// difference query R − S as the instance grows (Section 5).
// Cancellation or deadline expiry of ctx aborts with a typed error.
func LegacyBlowup(ctx context.Context, cfg LegacyConfig) ([]LegacyPoint, error) {
	cfg.defaults()
	var out []LegacyPoint
	for _, n := range cfg.Sizes {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		db := table.NewDatabase(syntheticSchema())
		for i := 0; i < n; i++ {
			for _, rel := range []string{"r", "s"} {
				row := table.Row{value.Int(int64(rng.Intn(2 * n))), value.Int(int64(rng.Intn(2 * n)))}
				for j := range row {
					if rng.Float64() < cfg.NullRate {
						row[j] = db.FreshNull()
					}
				}
				if err := db.Insert(rel, row); err != nil {
					return nil, err
				}
			}
		}

		q := algebra.Diff{
			L: algebra.Base{Name: "r", Cols: 2},
			R: algebra.Base{Name: "s", Cols: 2},
		}
		tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeNaive}

		pt := LegacyPoint{Rows: n, AdomSize: len(db.ActiveDomain())}

		legacy := tr.LegacyTrue(certain.Primitive(q))
		ev := eval.New(db, eval.Options{Semantics: value.Naive,
			Governor: guard.New(ctx, guard.Limits{MaxRows: cfg.MaxRows})})
		start := time.Now()
		_, err := ev.Eval(legacy)
		pt.LegacyTime = time.Since(start)
		switch {
		case err == nil:
			pt.LegacyCost = ev.Stats().CostUnits
		case budgetTripped(err):
			pt.LegacyFailed = true
		default:
			return nil, fmt.Errorf("legacy eval: %w", err)
		}

		plus := tr.Plus(q)
		ev2 := eval.New(db, eval.Options{Semantics: value.Naive,
			Governor: guard.New(ctx, guard.Limits{MaxRows: cfg.MaxRows})})
		start = time.Now()
		if _, err := ev2.Eval(plus); err != nil {
			return nil, fmt.Errorf("plus eval: %w", err)
		}
		pt.PlusTime = time.Since(start)
		pt.PlusCost = ev2.Stats().CostUnits
		out = append(out, pt)
	}
	return out, nil
}

// LegacyOnQ3 demonstrates that the legacy translation of the real query
// Q3 is infeasible outright: its Qf side requires adom^9 (the arity of
// orders), which exceeds any realistic budget on even the smallest
// instance. It returns the error the evaluator reports.
func LegacyOnQ3(ctx context.Context, scale float64, seed int64) (adomSize int, err error) {
	db := tpch.Generate(tpch.Config{ScaleFactor: scale, Seed: seed, NullRate: 0.02})
	rng := rand.New(rand.NewSource(seed))
	params := tpch.Q3.Params(rng, tpch.Config{ScaleFactor: scale}.Sizes())
	q, err := sql.Parse(tpch.Q3.SQL())
	if err != nil {
		return 0, err
	}
	compiled, err := compile.Compile(q, db.Schema, params)
	if err != nil {
		return 0, err
	}
	tr := &certain.Translator{Sch: db.Schema, Mode: certain.ModeNaive}
	legacy := tr.LegacyTrue(certain.Primitive(compiled.Expr))
	ev := eval.New(db, eval.Options{Semantics: value.Naive, Governor: guard.New(ctx, guard.Limits{})})
	_, err = ev.Eval(legacy)
	return len(db.ActiveDomain()), err
}

// OrSplitReport compares plans of a translated query with and without
// the OR-splitting rewrite (the Section 7 optimizer discussion). The
// paper's optimizer is "confused" by the unsplit translation: `A = B OR
// B IS NULL` hides the hash key and the plan collapses into nested
// loops with "astronomical" costs. This executor hashes such conditions
// anyway (the wild-bucket unification operator), so the report carries
// three plans: unsplit, split, and the confused plan — unsplit with
// hash strategies disabled — that reproduces the paper's number.
type OrSplitReport struct {
	Query                    tpch.QueryID
	Unsplit, Split, Confused OrSplitRun
}

// OrSplitRun is one plan's execution. Failed is set when the plan
// exceeded the budget — the in-memory analogue of the paper's
// "astronomical" plan costs for the direct translation of Q4.
type OrSplitRun struct {
	Stats  certsql.Stats
	Time   time.Duration
	Rows   int
	Failed bool
}

// OrSplit runs the comparison for one query on one instance, on the
// paper-faithful route: the planner would split the unsplit plan itself.
// Each plan runs once untimed, so that compiling it is not in Time.
// Cancellation or deadline expiry of ctx aborts with a typed error.
func OrSplit(ctx context.Context, qid tpch.QueryID, scale, nullRate float64, seed int64) (*OrSplitReport, error) {
	db := certsql.FromInternal(tpch.Generate(tpch.Config{ScaleFactor: scale, Seed: seed, NullRate: nullRate}))
	rng := rand.New(rand.NewSource(seed))
	params := qid.Params(rng, tpch.Config{ScaleFactor: scale}.Sizes())
	_, plus, err := statements(db, qid)
	if err != nil {
		return nil, err
	}

	run := func(split, noHash bool) (r OrSplitRun, err error) {
		// The zero budgets are the facade's defaults, not DefaultLimits.
		opts := certsql.Options{NaivePlanner: true, NoOrSplit: !split, NoHashJoin: noHash}
		for range 2 {
			var res *certsql.Result
			res, r.Time, err = execute(ctx, plus, params, opts)
			switch {
			case err == nil:
				r.Stats, r.Rows = res.Stats, res.Len()
			case !split && budgetTripped(err):
				r.Failed = true
			default:
				return r, err
			}
		}
		return r, nil
	}
	report := &OrSplitReport{Query: qid}
	if report.Unsplit, err = run(false, false); err != nil {
		return nil, err
	}
	if report.Split, err = run(true, false); err != nil {
		return nil, err
	}
	if report.Confused, err = run(false, true); err != nil {
		return nil, err
	}
	return report, nil
}
