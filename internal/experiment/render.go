package experiment

import (
	"fmt"
	"strings"

	"certsql/internal/tpch"
)

// renderTrips appends a budget-trip footer when any samples were
// dropped over budget (see the TolerateBudget config knobs): governed
// experiments degrade loudly, never silently. It sums the per-query
// counts trips reads off each row.
func renderTrips[R any](b *strings.Builder, rows []R, trips func(R) map[tpch.QueryID]int) {
	sum, total := map[tpch.QueryID]int{}, 0
	for _, r := range rows {
		for q, n := range trips(r) {
			sum[q] += n
			total += n
		}
	}
	if total == 0 {
		return
	}
	b.WriteString("budget trips (samples dropped over the resource budget):")
	for _, q := range tpch.AllQueries {
		if sum[q] > 0 {
			fmt.Fprintf(b, " %s=%d", q, sum[q])
		}
	}
	b.WriteString("\n")
}

// RenderFigure1 renders the Figure 1 series as a text table comparable
// to the paper's chart: null rate versus average % of false positives
// per query.
func RenderFigure1(rows []Figure1Row) string {
	var b strings.Builder
	b.WriteString("Figure 1 — average % of false positives per query (lower bounds)\n")
	b.WriteString("null%   ")
	for _, q := range tpch.AllQueries {
		fmt.Fprintf(&b, "%8s", q)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5.1f   ", 100*r.NullRate)
		for _, q := range tpch.AllQueries {
			if r.Samples[q] == 0 {
				b.WriteString("       –")
				continue
			}
			fmt.Fprintf(&b, "%8.1f", r.FPPercent[q])
		}
		b.WriteString("\n")
	}
	renderTrips(&b, rows, func(r Figure1Row) map[tpch.QueryID]int { return r.BudgetTrips })
	return b.String()
}

// RenderFigure4 renders the Figure 4 series for each route: null rate
// versus relative performance t⁺/t per query, then the same series in
// exact cost units.
func RenderFigure4(rows []Figure4Row) string {
	var b strings.Builder
	for _, route := range Routes {
		for i, title := range []string{
			"Figure 4 — average relative performance t⁺/t (1 = no overhead)",
			"relative cost units Σ⁺/Σ over the same pairs (exact count)",
		} {
			fmt.Fprintf(&b, "%s, %s route\n", title, route)
			b.WriteString("null%   ")
			for _, q := range tpch.AllQueries {
				fmt.Fprintf(&b, "%12s", q)
			}
			b.WriteString("\n")
			for _, r := range rows {
				fmt.Fprintf(&b, "%5.1f   ", 100*r.NullRate)
				for _, q := range tpch.AllQueries {
					v, ok := [...]map[tpch.QueryID]float64{r.RelPerf[route], r.RelCost[route]}[i][q]
					if !ok {
						b.WriteString("           –")
						continue
					}
					fmt.Fprintf(&b, "%12.4f", v)
				}
				b.WriteString("\n")
			}
		}
	}
	renderTrips(&b, rows, func(r Figure4Row) map[tpch.QueryID]int { return r.BudgetTrips })
	return b.String()
}

// RenderTable1 renders Table 1 for each route: ranges of relative
// performance per query and instance size.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	for _, route := range Routes {
		fmt.Fprintf(&b, "Table 1 — ranges of average relative performance t⁺/t per instance size, %s route\n", route)
		b.WriteString("query   ")
		for _, r := range rows {
			fmt.Fprintf(&b, "%19s", fmt.Sprintf("%gx", r.Multiplier))
		}
		b.WriteString("\n")
		for _, q := range tpch.AllQueries {
			fmt.Fprintf(&b, "%-8s", q)
			for _, r := range rows {
				fmt.Fprintf(&b, "%19s", fmt.Sprintf("%.4f – %.4f", r.Min[route][q], r.Max[route][q]))
			}
			b.WriteString("\n")
		}
	}
	renderTrips(&b, rows, func(r Table1Row) map[tpch.QueryID]int { return r.BudgetTrips })
	return b.String()
}

// RenderRecall renders the precision/recall summary of Section 7.
func RenderRecall(results []RecallResult) string {
	var b strings.Builder
	b.WriteString("Precision & recall (Section 7)\n")
	b.WriteString("query   answers-certain   recalled   recall%   FPs-in-SQL   FPs-leaked-by-Q+\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8s%16d %10d %9.1f %12d %18d\n",
			r.Query, r.CertainReturned, r.Recalled, r.Recall(), r.FalsePositives, r.LeakedFalsePositives)
	}
	renderTrips(&b, results, func(r RecallResult) map[tpch.QueryID]int { return map[tpch.QueryID]int{r.Query: r.BudgetTrips} })
	return b.String()
}

// RenderLegacy renders the Section 5 blow-up measurements.
func RenderLegacy(points []LegacyPoint) string {
	var b strings.Builder
	b.WriteString("Section 5 — legacy translation [Libkin TODS'16] vs Q+ on R − S\n")
	b.WriteString("rows/rel   |adom|   legacy-cost      legacy-time     Q+-cost     Q+-time\n")
	for _, p := range points {
		legacyCost, legacyTime := fmt.Sprint(p.LegacyCost), p.LegacyTime.String()
		if p.LegacyFailed {
			legacyCost, legacyTime = "—", "OUT OF BUDGET"
		}
		fmt.Fprintf(&b, "%8d %8d %13s %16s %11d %11s\n",
			p.Rows, p.AdomSize, legacyCost, legacyTime, p.PlusCost, p.PlusTime)
	}
	return b.String()
}

// RenderOrSplit renders the optimizer-confusion comparison.
func RenderOrSplit(r *OrSplitReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OR-splitting on %s (Section 7 optimizer discussion)\n", r.Query)
	for _, p := range []struct {
		label string
		run   OrSplitRun
	}{{"without split:", r.Unsplit}, {"with split:", r.Split}, {"confused:", r.Confused}} {
		if p.run.Failed {
			fmt.Fprintf(&b, "  %-15s EXCEEDED BUDGET after %s\n", p.label, p.run.Time)
		} else {
			fmt.Fprintf(&b, "  %-15s %d rows, %s, %s\n", p.label, p.run.Rows, p.run.Time, p.run.Stats.Summary())
		}
	}
	ratio := func(run OrSplitRun) string {
		if run.Failed {
			return "over budget"
		}
		return fmt.Sprintf("%.1f", float64(run.Stats.CostUnits)/float64(max(1, r.Split.Stats.CostUnits)))
	}
	fmt.Fprintf(&b, "  cost ratio unsplit/split: %s; confused (unsplit, no hash strategies)/split: %s\n",
		ratio(r.Unsplit), ratio(r.Confused))
	return b.String()
}
