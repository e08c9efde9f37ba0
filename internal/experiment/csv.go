package experiment

import (
	"encoding/csv"
	"fmt"
	"io"

	"certsql/internal/tpch"
)

// CSV writers for the experiment series, so the figures can be re-drawn
// with any plotting tool. Columns mirror the paper's axes.

// WriteFigure1CSV writes null_rate_percent, q1..q4 false-positive
// percentages (empty cell when a query had no non-empty answers).
func WriteFigure1CSV(w io.Writer, rows []Figure1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"null_rate_percent", "q1_fp_percent", "q2_fp_percent", "q3_fp_percent", "q4_fp_percent"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{fmt.Sprintf("%.1f", 100*r.NullRate)}
		for _, q := range tpch.AllQueries {
			if r.Samples[q] == 0 {
				rec = append(rec, "")
				continue
			}
			rec = append(rec, fmt.Sprintf("%.2f", r.FPPercent[q]))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure4CSV writes null_rate_percent, q1..q4 relative performance
// ratios t⁺/t, then q1..q4 relative cost units Σ⁺/Σ.
func WriteFigure4CSV(w io.Writer, rows []Figure4Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"null_rate_percent", "q1_relperf", "q2_relperf", "q3_relperf", "q4_relperf",
		"q1_relcost", "q2_relcost", "q3_relcost", "q4_relcost"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{fmt.Sprintf("%.1f", 100*r.NullRate)}
		for _, series := range []map[tpch.QueryID]float64{r.RelPerf, r.RelCost} {
			for _, q := range tpch.AllQueries {
				v, ok := series[q]
				if !ok {
					rec = append(rec, "")
					continue
				}
				rec = append(rec, fmt.Sprintf("%.6f", v))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable1CSV writes one row per (size multiplier, query) with the
// min and max relative performance.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"size_multiplier", "query", "relperf_min", "relperf_max"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, q := range tpch.AllQueries {
			rec := []string{
				fmt.Sprintf("%g", r.Multiplier),
				q.String(),
				fmt.Sprintf("%.6f", r.Min[q]),
				fmt.Sprintf("%.6f", r.Max[q]),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLegacyCSV writes the Section 5 blow-up series.
func WriteLegacyCSV(w io.Writer, points []LegacyPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rows_per_relation", "adom_size", "legacy_cost", "legacy_ns", "legacy_failed", "plus_cost", "plus_ns"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			fmt.Sprintf("%d", p.Rows),
			fmt.Sprintf("%d", p.AdomSize),
			fmt.Sprintf("%d", p.LegacyCost),
			fmt.Sprintf("%d", p.LegacyTime.Nanoseconds()),
			fmt.Sprintf("%t", p.LegacyFailed),
			fmt.Sprintf("%d", p.PlusCost),
			fmt.Sprintf("%d", p.PlusTime.Nanoseconds()),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRecallCSV writes the precision/recall summary.
func WriteRecallCSV(w io.Writer, results []RecallResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"query", "certain_returned", "recalled", "recall_percent", "false_positives", "leaked_false_positives"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Query.String(),
			fmt.Sprintf("%d", r.CertainReturned),
			fmt.Sprintf("%d", r.Recalled),
			fmt.Sprintf("%.2f", r.Recall()),
			fmt.Sprintf("%d", r.FalsePositives),
			fmt.Sprintf("%d", r.LeakedFalsePositives),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAblationCSV writes the ablation study: one row per (query,
// variant) with the slowdown factor (empty when the variant exceeded
// the row budget).
func WriteAblationCSV(w io.Writer, rows []AblationRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"query", "variant", "slowdown_factor", "overbudget"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, v := range ablationVariants {
			rec := []string{r.Query.String(), v.name, "", "false"}
			if r.Failed[v.name] {
				rec[3] = "true"
			} else {
				rec[2] = fmt.Sprintf("%.4f", r.Factor[v.name])
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
