package experiment_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"certsql/internal/eval"
	"certsql/internal/experiment"
	"certsql/internal/tpch"
)

// TestFigure1Shape runs a miniature Figure 1 and checks the paper's
// qualitative findings: every query produces false positives at modest
// null rates, Q2 is close to 100%, and Q3's rate grows with the null
// rate.
func TestFigure1Shape(t *testing.T) {
	rows, err := experiment.Figure1(context.Background(), experiment.Figure1Config{
		NullRates:  []float64{0.02, 0.08},
		Instances:  3,
		ParamDraws: 4,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	low, high := rows[0], rows[1]

	if low.Samples[tpch.Q2] > 0 && low.FPPercent[tpch.Q2] < 50 {
		t.Errorf("Q2 FP rate at 2%% nulls = %.1f%%, paper reports near 100%%", low.FPPercent[tpch.Q2])
	}
	if high.Samples[tpch.Q3] > 0 && low.Samples[tpch.Q3] > 0 &&
		high.FPPercent[tpch.Q3] < low.FPPercent[tpch.Q3] {
		t.Errorf("Q3 FP rate should grow with the null rate: %.1f%% at 2%% vs %.1f%% at 8%%",
			low.FPPercent[tpch.Q3], high.FPPercent[tpch.Q3])
	}
	anyFP := false
	for _, q := range tpch.AllQueries {
		if high.FPPercent[q] > 0 {
			anyFP = true
		}
	}
	if !anyFP {
		t.Error("no query produced false positives at 8% nulls")
	}
	t.Log("\n" + experiment.RenderFigure1(rows))
}

// figure4Mini is the miniature Figure 4 behind TestFigure4Shape and
// BenchmarkFigure4Shape.
var figure4Mini = experiment.Figure4Config{
	NullRates:  []float64{0.02, 0.04},
	Instances:  1,
	ParamDraws: 2,
	Repeats:    2,
	Scale:      0.002,
	Seed:       2,
}

// TestFigure4Shape runs a miniature Figure 4 and checks the paper's
// three behaviours on RelCost, the exact cost-unit ratio, so that no
// scheduler can flake it: Q2 cheaper than the original, Q1/Q3 near 1,
// Q4 dearer but bounded. It holds on both routes. The wall-clock
// version of the same triptych is BenchmarkFigure4Shape (`make
// bench-fig4`).
func TestFigure4Shape(t *testing.T) {
	rows, err := experiment.Figure4(context.Background(), figure4Mini)
	if err != nil {
		t.Fatal(err)
	}
	// Q⁺4's RelCost on the paper route with the 8-branch split (every
	// inner–inner disjunction distributed), measured on this config at
	// commit 3884c55: 4.3412 at 2 % nulls, 4.5320 at 4 %. The 4-branch
	// split measures 3.3274 and 3.4539 there, and 3.328 and 3.450 on the
	// default route.
	eightBranchQ4 := map[float64]float64{0.02: 4.3412, 0.04: 4.5320}
	// The lower end of "near 1" for Q1/Q3. On the default route Q⁺3
	// measures 0.9997 and 0.9993: just below Q3.
	nearOne := map[experiment.Route]float64{experiment.PaperRoute: 1, experiment.DefaultRoute: 0.99}
	// The upper end is 2, but on the default route Q⁺1's NOT EXISTS
	// build reads Q1's cached lineitem selection and the rows on its two
	// null lists, not all of lineitem: it measures 1.0138 and 1.0262.
	ceiling := func(route experiment.Route, q tpch.QueryID) float64 {
		if route == experiment.DefaultRoute && q == tpch.Q1 {
			return 1.03
		}
		return 2
	}
	for _, route := range experiment.Routes {
		for _, r := range rows {
			cost := r.RelCost[route]
			if v := cost[tpch.Q2]; v >= 1 {
				t.Errorf("%s route: Q2 relative cost %.4f at %.0f%%, expected below 1 (the decorrelated branch short-circuits)", route, v, 100*r.NullRate)
			}
			for _, q := range []tpch.QueryID{tpch.Q1, tpch.Q3} {
				if v := cost[q]; v < nearOne[route] || v > ceiling(route, q) {
					t.Errorf("%s route: %s relative cost %.4f at %.0f%%, expected near 1", route, q, v, 100*r.NullRate)
				}
			}
			if v := cost[tpch.Q4]; v <= 1 || v >= eightBranchQ4[r.NullRate] {
				t.Errorf("%s route: Q4 relative cost %.4f at %.0f%%, expected above 1 and below the 8-branch split's %.4f",
					route, v, 100*r.NullRate, eightBranchQ4[r.NullRate])
			}
		}
	}
	t.Log("\n" + experiment.RenderFigure4(rows))
}

// BenchmarkFigure4Shape is the wall-clock triptych on both routes:
// Q1/Q3 cheap, Q2 dramatically faster, Q4 slower but bounded. Timings
// depend on the machine and on what else runs on it, so this is not
// part of the plain test run; `make bench-fig4` runs it alone.
func BenchmarkFigure4Shape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Figure4(context.Background(), figure4Mini)
		if err != nil {
			b.Fatal(err)
		}
		for _, route := range experiment.Routes {
			for _, r := range rows {
				perf := r.RelPerf[route]
				if v := perf[tpch.Q2]; v > 0.8 {
					b.Errorf("%s route: Q2 relative perf %.3f at %.0f%%, expected well below 1 (paper: ~10⁻³)", route, v, 100*r.NullRate)
				}
				for _, q := range []tpch.QueryID{tpch.Q1, tpch.Q3} {
					if v := perf[q]; v > 2.5 {
						b.Errorf("%s route: %s relative perf %.3f at %.0f%%, expected near 1", route, q, v, 100*r.NullRate)
					}
				}
				if v := perf[tpch.Q4]; v > 25 {
					b.Errorf("%s route: Q4 relative perf %.3f, expected bounded overhead", route, v)
				}
				b.ReportMetric(perf[tpch.Q4], fmt.Sprintf("q4-t+/t@%.0f%%-%s", 100*r.NullRate, route))
			}
		}
	}
}

// TestRecallIs100 checks the paper's headline recall result: Q⁺ returns
// exactly the SQL answers minus the detected false positives, and never
// leaks a detected false positive.
func TestRecallIs100(t *testing.T) {
	results, err := experiment.Recall(context.Background(), experiment.RecallConfig{
		Instances:  3,
		ParamDraws: 4,
		NullRate:   0.04,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.LeakedFalsePositives != 0 {
			t.Errorf("%s: Q+ leaked %d detected false positives", r.Query, r.LeakedFalsePositives)
		}
		if r.Recall() < 100 {
			t.Errorf("%s: recall %.1f%%, paper reports 100%%", r.Query, r.Recall())
		}
	}
	t.Log("\n" + experiment.RenderRecall(results))
}

// TestLegacyBlowup checks the Section 5 result: the legacy translation's
// cost grows superlinearly and exceeds the budget well before 10³ rows,
// while Q⁺ keeps up easily.
func TestLegacyBlowup(t *testing.T) {
	points, err := experiment.LegacyBlowup(context.Background(), experiment.LegacyConfig{
		Sizes:   []int{8, 32, 128, 512},
		MaxRows: 500_000,
		Seed:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := points[len(points)-1]
	if !last.LegacyFailed {
		t.Errorf("legacy translation survived %d rows within budget; expected blow-up", last.Rows)
	}
	for _, p := range points {
		if p.PlusCost >= p.LegacyCost && !p.LegacyFailed {
			t.Errorf("Q+ cost %d not below legacy cost %d at %d rows", p.PlusCost, p.LegacyCost, p.Rows)
		}
		if p.LegacyFailed && p.LegacyCost != 0 {
			t.Errorf("out-of-budget row at %d rows reports legacy cost %d, want none", p.Rows, p.LegacyCost)
		}
	}
	rendered := experiment.RenderLegacy(points)
	if want := "—    OUT OF BUDGET"; last.LegacyFailed && !strings.Contains(rendered, want) {
		t.Errorf("rendered table lacks %q for the failed row:\n%s", want, rendered)
	}
	t.Log("\n" + rendered)
}

// TestLegacyOnQ3 checks that the legacy translation of the real Q3 is
// infeasible outright (adom^9 for the orders relation).
func TestLegacyOnQ3(t *testing.T) {
	adom, err := experiment.LegacyOnQ3(context.Background(), 0.001, 5)
	if err == nil {
		t.Fatal("legacy translation of Q3 unexpectedly evaluated within budget")
	}
	if !errors.Is(err, eval.ErrTooLarge) {
		t.Fatalf("unexpected error: %v", err)
	}
	t.Logf("legacy Q3 with |adom| = %d: %v", adom, err)
}

// TestOrSplitQ2 checks the Section 7 optimizer story on Q2: without
// splitting, the translated NOT EXISTS condition contains OR … IS NULL,
// which hides the hash key — the executor runs it on the wild-bucket
// index, and on nested loops once hash strategies are off (the paper's
// confused optimizer); with splitting, the plan short-circuits.
func TestOrSplitQ2(t *testing.T) {
	r, err := experiment.OrSplit(context.Background(), tpch.Q2, 0.005, 0.03, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Unsplit.Rows != r.Split.Rows || r.Confused.Rows != r.Split.Rows {
		t.Errorf("plans disagree: %d unsplit, %d split, %d confused rows", r.Unsplit.Rows, r.Split.Rows, r.Confused.Rows)
	}
	if st := r.Unsplit.Stats; st.UnifyJoins == 0 || st.NestedLoopJoins != 0 {
		t.Errorf("unsplit Q2+ should run on the wild-bucket index: %s", st.Summary())
	}
	if r.Confused.Stats.NestedLoopJoins == 0 {
		t.Error("confused Q2+ used no nested loops; expected the confused-optimizer path")
	}
	if r.Split.Stats.ShortCircuits == 0 {
		t.Error("split Q2+ performed no short circuits; expected the decorrelated IS NULL branch")
	}
	t.Log("\n" + experiment.RenderOrSplit(r))
}

// TestOrSplitQ4 checks the harder half of the Section 7 story: the
// confused Q4+ plan has "astronomical" cost (here: it exceeds the
// budget via Cartesian fallbacks), while the unsplit plan on the
// wild-bucket index stays within a small factor of the split one.
func TestOrSplitQ4(t *testing.T) {
	r, err := experiment.OrSplit(context.Background(), tpch.Q4, 0.002, 0.03, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Confused.Failed && r.Confused.Stats.CostUnits < 4*r.Split.Stats.CostUnits {
		t.Errorf("confused Q4+ cost %d not dramatically above split cost %d",
			r.Confused.Stats.CostUnits, r.Split.Stats.CostUnits)
	}
	if r.Unsplit.Failed || r.Unsplit.Stats.CostUnits > 2*r.Split.Stats.CostUnits {
		t.Errorf("unsplit Q4+ (failed=%v) cost %d, want within 2x of split cost %d",
			r.Unsplit.Failed, r.Unsplit.Stats.CostUnits, r.Split.Stats.CostUnits)
	}
	if r.Unsplit.Rows != r.Split.Rows {
		t.Errorf("split changed the result: %d vs %d rows", r.Unsplit.Rows, r.Split.Rows)
	}
	t.Log("\n" + experiment.RenderOrSplit(r))
}

// TestAblationShape runs the design-decision ablation study and checks
// the headline effects on CostFactor — exact row operations, so the
// assertions hold on any machine under any load: losing the short
// circuit at least doubles Q2's work (37× here, since the branch it
// answers reads only the orders with a null customer), and losing hash
// joins makes Q3's anti-join quadratic (389×, or over budget). Losing
// OR-splitting no longer cripples Q4 — the executor hashes the unsplit
// conditions (1.07×) — so that column is only bounded from above. The wall-clock
// Factor is what the rendered table reports; nothing asserts on it.
func TestAblationShape(t *testing.T) {
	rows, err := experiment.Ablation(context.Background(), experiment.AblationConfig{Seed: 7, Scale: 0.002, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[tpch.QueryID]experiment.AblationRow{}
	for _, r := range rows {
		byQuery[r.Query] = r
	}
	if r := byQuery[tpch.Q4]; r.Failed["no-orsplit"] || r.CostFactor["no-orsplit"] > 20 {
		t.Errorf("Q4 without OR-split: failed=%v cost factor %.2f, expected a small factor",
			r.Failed["no-orsplit"], r.CostFactor["no-orsplit"])
	}
	if r := byQuery[tpch.Q2]; r.CostFactor["no-shortcircuit"] < 2 {
		t.Errorf("Q2 without short circuit: cost factor %.2f, expected at least double the work", r.CostFactor["no-shortcircuit"])
	}
	if r := byQuery[tpch.Q3]; !r.Failed["no-hashjoin"] && r.CostFactor["no-hashjoin"] < 5 {
		t.Errorf("Q3 without hash joins: cost factor %.2f, expected quadratic blow-up", r.CostFactor["no-hashjoin"])
	}
	for _, r := range rows {
		t.Logf("%s cost factors: %v", r.Query, r.CostFactor)
	}
	t.Log("\n" + experiment.RenderAblation(rows))
}
