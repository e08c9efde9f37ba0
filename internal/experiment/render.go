package experiment

import (
	"fmt"
	"strings"

	"certsql/internal/tpch"
)

// renderTrips appends a budget-trip footer when any samples were
// dropped over budget (see the TolerateBudget config knobs): governed
// experiments degrade loudly, never silently.
func renderTrips(b *strings.Builder, trips map[tpch.QueryID]int) {
	total := 0
	for _, n := range trips {
		total += n
	}
	if total == 0 {
		return
	}
	b.WriteString("budget trips (samples dropped over the resource budget):")
	for _, q := range tpch.AllQueries {
		if trips[q] > 0 {
			fmt.Fprintf(b, " %s=%d", q, trips[q])
		}
	}
	b.WriteString("\n")
}

// sumTrips merges per-row trip counts into one per-query total.
func sumTrips(rows []map[tpch.QueryID]int) map[tpch.QueryID]int {
	out := map[tpch.QueryID]int{}
	for _, m := range rows {
		for q, n := range m {
			out[q] += n
		}
	}
	return out
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
	trips := make([]map[tpch.QueryID]int, 0, len(rows))
	for _, r := range rows {
		trips = append(trips, r.BudgetTrips)
	}
	renderTrips(&b, sumTrips(trips))
	return b.String()
}

// RenderFigure4 renders the Figure 4 series: null rate versus relative
// performance t⁺/t per query, then the same series in exact cost units.
func RenderFigure4(rows []Figure4Row) string {
	var b strings.Builder
	for _, series := range []struct {
		title string
		of    func(Figure4Row) map[tpch.QueryID]float64
	}{
		{"Figure 4 — average relative performance t⁺/t (1 = no overhead)", func(r Figure4Row) map[tpch.QueryID]float64 { return r.RelPerf }},
		{"relative cost units Σ⁺/Σ over the same pairs (exact count)", func(r Figure4Row) map[tpch.QueryID]float64 { return r.RelCost }},
	} {
		b.WriteString(series.title + "\n")
		b.WriteString("null%   ")
		for _, q := range tpch.AllQueries {
			fmt.Fprintf(&b, "%12s", q)
		}
		b.WriteString("\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "%5.1f   ", 100*r.NullRate)
			for _, q := range tpch.AllQueries {
				v, ok := series.of(r)[q]
				if !ok {
					b.WriteString("           –")
					continue
				}
				fmt.Fprintf(&b, "%12.4f", v)
			}
			b.WriteString("\n")
		}
	}
	trips := make([]map[tpch.QueryID]int, 0, len(rows))
	for _, r := range rows {
		trips = append(trips, r.BudgetTrips)
	}
	renderTrips(&b, sumTrips(trips))
	return b.String()
}

// RenderTable1 renders Table 1: ranges of relative performance per
// query and instance size.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — ranges of average relative performance t⁺/t per instance size\n")
	b.WriteString("query   ")
	for _, r := range rows {
		fmt.Fprintf(&b, "%19s", fmt.Sprintf("%gx", r.Multiplier))
	}
	b.WriteString("\n")
	for _, q := range tpch.AllQueries {
		fmt.Fprintf(&b, "%-8s", q)
		for _, r := range rows {
			fmt.Fprintf(&b, "%19s", fmt.Sprintf("%.4f – %.4f", r.Min[q], r.Max[q]))
		}
		b.WriteString("\n")
	}
	trips := make([]map[tpch.QueryID]int, 0, len(rows))
	for _, r := range rows {
		trips = append(trips, r.BudgetTrips)
	}
	renderTrips(&b, sumTrips(trips))
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
	trips := map[tpch.QueryID]int{}
	for _, r := range results {
		trips[r.Query] = r.BudgetTrips
	}
	renderTrips(&b, trips)
	return b.String()
}

// RenderLegacy renders the Section 5 blow-up measurements.
func RenderLegacy(points []LegacyPoint) string {
	var b strings.Builder
	b.WriteString("Section 5 — legacy translation [Libkin TODS'16] vs Q+ on R − S\n")
	b.WriteString("rows/rel   |adom|   legacy-cost      legacy-time     Q+-cost     Q+-time\n")
	for _, p := range points {
		legacyTime := p.LegacyTime.String()
		if p.LegacyFailed {
			legacyTime = "OUT OF BUDGET"
		}
		fmt.Fprintf(&b, "%8d %8d %13d %16s %11d %11s\n",
			p.Rows, p.AdomSize, p.LegacyCost, legacyTime, p.PlusCost, p.PlusTime)
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
			fmt.Fprintf(&b, "  %-15s EXCEEDED BUDGET after %s, %s\n", p.label, p.run.Time, p.run.Stats.Summary())
		} else {
			fmt.Fprintf(&b, "  %-15s %d rows, %s, %s\n", p.label, p.run.Rows, p.run.Time, p.run.Stats.Summary())
		}
	}
	ratio := func(run OrSplitRun) string {
		if run.Failed {
			return "over budget"
		}
		return fmt.Sprintf("%.1f", float64(run.Stats.CostUnits)/float64(maxInt64(1, r.Split.Stats.CostUnits)))
	}
	fmt.Fprintf(&b, "  cost ratio unsplit/split: %s; confused (unsplit, no hash strategies)/split: %s\n",
		ratio(r.Unsplit), ratio(r.Confused))
	return b.String()
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
