// Command experiments regenerates the tables and figures of the paper's
// evaluation (Guagliardo & Libkin, PODS 2016). Each experiment prints a
// text rendition of the corresponding figure or table; see EXPERIMENTS.md
// for the recorded paper-versus-measured comparison.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig1 -instances 20 -draws 5
//	experiments -run fig4 -scale 0.004
//	experiments -run table1|recall|fig2|orsplit
//	experiments -run all -timeout 10m -max-rows 1000000 -degrade
//
// Resource governance: -timeout bounds the whole invocation, -max-rows
// and -max-mem bound every individual evaluation, and -degrade makes
// per-query budget trips non-fatal — the sample is dropped and the trip
// reported in the output table — instead of aborting the experiment.
//
// Exit codes:
//
//	0  success
//	1  operational error
//	2  bad flags or usage
//	3  a resource budget was exceeded (run again with -degrade to
//	   tolerate per-query trips, or raise -max-rows / -max-mem)
//	4  the -timeout deadline expired (or the run was canceled)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"certsql/internal/experiment"
	"certsql/internal/guard"
	"certsql/internal/tpch"
)

func main() {
	var (
		run       = flag.String("run", "all", "experiment to run: fig1, fig2, fig4, table1, recall, orsplit, ablation, all")
		scale     = flag.Float64("scale", 0, "TPC-H scale factor override (0 = per-experiment default)")
		instances = flag.Int("instances", 0, "instances per configuration (0 = default)")
		draws     = flag.Int("draws", 0, "parameter draws per instance (0 = default)")
		seed      = flag.Int64("seed", 1, "random seed")
		quick     = flag.Bool("quick", false, "use reduced settings for a fast smoke run")
		csvDir    = flag.String("csv", "", "also write plot-ready CSV files into this directory")
		par       = flag.Int("parallelism", 0, "executor worker count (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		timeout   = flag.Duration("timeout", 0, "abort the whole invocation after this long (0 = no deadline)")
		maxRows   = flag.Int("max-rows", 0, "row budget per evaluation (0 = governed default, negative = unlimited)")
		maxMem    = flag.Int64("max-mem", 0, "estimated-bytes memory budget per evaluation (0 = unlimited)")
		degrade   = flag.Bool("degrade", false, "tolerate per-query budget trips: drop the sample and report the trip in the output table instead of aborting")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	limits := guard.Limits{MaxRows: *maxRows, MaxMemBytes: *maxMem}
	if limits == (guard.Limits{}) {
		limits = experiment.DefaultLimits
	}

	if err := dispatch(ctx, *run, *scale, *instances, *draws, *seed, *quick, *csvDir, *par, limits, *degrade); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps the guard error taxonomy onto the documented exit codes.
func exitCode(err error) int {
	switch {
	case errors.Is(err, guard.ErrRowBudget), errors.Is(err, guard.ErrMemBudget),
		errors.Is(err, guard.ErrCostBudget), errors.Is(err, guard.ErrBudget):
		return 3
	case errors.Is(err, guard.ErrCanceled), errors.Is(err, guard.ErrDeadline):
		return 4
	default:
		return 1
	}
}

func dispatch(ctx context.Context, run string, scale float64, instances, draws int, seed int64, quick bool, csvDir string, par int, limits guard.Limits, degrade bool) error {
	all := run == "all"
	ran := false

	// writeCSV writes one series file when -csv is set.
	writeCSV := func(name string, write func(w io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
		return werr
	}

	if all || run == "fig1" {
		ran = true
		cfg := experiment.Figure1Config{Scale: scale, Instances: instances, ParamDraws: draws, Seed: seed, Parallelism: par,
			Limits: limits, TolerateBudget: degrade}
		if quick {
			cfg.NullRates = []float64{0.01, 0.03, 0.05, 0.08, 0.10}
			if cfg.Instances == 0 {
				cfg.Instances = 2
			}
			if cfg.ParamDraws == 0 {
				cfg.ParamDraws = 3
			}
		}
		rows, err := experiment.Figure1(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFigure1(rows))
		if err := writeCSV("figure1.csv", func(w io.Writer) error { return experiment.WriteFigure1CSV(w, rows) }); err != nil {
			return err
		}
	}

	if all || run == "fig2" {
		ran = true
		cfg := experiment.LegacyConfig{Seed: seed, MaxRows: limits.MaxRows}
		if quick {
			cfg.Sizes = []int{8, 32, 128, 512}
		}
		points, err := experiment.LegacyBlowup(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderLegacy(points))
		if err := writeCSV("section5_legacy.csv", func(w io.Writer) error { return experiment.WriteLegacyCSV(w, points) }); err != nil {
			return err
		}
		adom, lerr := experiment.LegacyOnQ3(ctx, 0.001, seed)
		fmt.Printf("Legacy translation of the real Q3 (|adom| = %d): %v\n\n", adom, lerr)
	}

	if all || run == "fig4" {
		ran = true
		cfg := experiment.Figure4Config{Scale: scale, Instances: instances, ParamDraws: draws, Seed: seed, Parallelism: par,
			Limits: limits, TolerateBudget: degrade}
		if quick {
			cfg.Instances, cfg.ParamDraws, cfg.Repeats = 1, 2, 2
		}
		rows, err := experiment.Figure4(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFigure4(rows))
		if err := writeCSV("figure4.csv", func(w io.Writer) error { return experiment.WriteFigure4CSV(w, rows) }); err != nil {
			return err
		}
	}

	if all || run == "table1" {
		ran = true
		cfg := experiment.Table1Config{BaseScale: scale, Seed: seed, Parallelism: par,
			Limits: limits, TolerateBudget: degrade}
		if quick {
			cfg.ScaleMultipliers = []float64{1, 3}
			cfg.NullRates = []float64{0.02, 0.04}
		}
		rows, err := experiment.Table1(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderTable1(rows))
		if err := writeCSV("table1.csv", func(w io.Writer) error { return experiment.WriteTable1CSV(w, rows) }); err != nil {
			return err
		}
	}

	if all || run == "recall" {
		ran = true
		cfg := experiment.RecallConfig{Scale: scale, Instances: instances, ParamDraws: draws, Seed: seed, Parallelism: par,
			Limits: limits, TolerateBudget: degrade}
		results, err := experiment.Recall(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderRecall(results))
		if err := writeCSV("recall.csv", func(w io.Writer) error { return experiment.WriteRecallCSV(w, results) }); err != nil {
			return err
		}
	}

	if all || run == "ablation" {
		ran = true
		rows, err := experiment.Ablation(ctx, experiment.AblationConfig{Seed: seed, Scale: scale, Parallelism: par, Limits: limits})
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderAblation(rows))
		if err := writeCSV("ablation.csv", func(w io.Writer) error { return experiment.WriteAblationCSV(w, rows) }); err != nil {
			return err
		}
	}

	if all || run == "orsplit" {
		ran = true
		for _, qid := range []tpch.QueryID{tpch.Q2, tpch.Q4} {
			r, err := experiment.OrSplit(ctx, qid, 0.004, 0.03, seed)
			if err != nil {
				return err
			}
			fmt.Println(experiment.RenderOrSplit(r))
		}
		// What OR-splitting is still worth on Q4 now that the executor
		// hashes the unsplit conditions: Figure 4's t⁺/t on both
		// translations, down to the null-free instance where the wild
		// lists are empty.
		for _, raw := range []bool{true, false} {
			cfg := experiment.Figure4Config{
				NullRates: []float64{0, 0.01, 0.02, 0.05, 0.10}, Queries: []tpch.QueryID{tpch.Q4}, NoOrSplit: raw,
				Scale: scale, Seed: seed, Parallelism: par, Limits: limits, TolerateBudget: degrade}
			if quick {
				cfg.Instances, cfg.ParamDraws, cfg.Repeats = 1, 1, 1
			}
			rows, err := experiment.Figure4(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Printf("Q4 translated with NoOrSplit=%v\n%s\n", raw, experiment.RenderFigure4(rows))
		}
	}

	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig1, fig2, fig4, table1, recall, orsplit, all)", run)
	}
	return nil
}
