// Command fuzzcert runs the differential-testing oracle over a range of
// generator seeds: each case is a random incomplete database plus a
// random SQL query, checked end to end against the brute-force certain
// answers and the pipeline's internal cross-checks (see
// internal/difftest).
//
// Usage:
//
//	fuzzcert [-seed 1] [-cases 1000] [-parallelism 0] [-shrink]
//	fuzzcert -chaos [-seed 1] [-cases 500]
//
// A failing case is reported with its seed (sufficient to reproduce),
// and with -shrink it is first minimized and emitted as a ready-to-paste
// Go regression test. The exit status is non-zero when any case fails.
//
// With -chaos each case is instead replayed under seeded injected
// faults (errors and panics at engine hook points), one random-point
// cancellation, and a budget-degradation probe, checking the pipeline's
// failure semantics: errors — never panics — surface through the public
// API, partial results are never passed off as complete, degraded
// results are still sound, and the database answers correctly on retry.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"certsql/internal/difftest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("fuzzcert", flag.ExitOnError)
	var (
		seed        = fs.Uint64("seed", 1, "first generator seed; case i uses seed+i")
		cases       = fs.Int("cases", 1000, "number of cases to check")
		parallelism = fs.Int("parallelism", 0, "worker count (0 = GOMAXPROCS)")
		shrink      = fs.Bool("shrink", true, "minimize failing cases and emit Go repro tests")
		verbose     = fs.Bool("v", false, "print progress every 1000 cases")
		chaos       = fs.Bool("chaos", false, "replay cases under injected faults and cancellation, checking failure semantics")
	)
	fs.Parse(args)

	if *chaos {
		return runChaos(*seed, *cases, *parallelism, out, errOut, *verbose)
	}

	start := time.Now()
	done, failed := 0, 0
	sum := difftest.Run(*seed, *cases, *parallelism, difftest.Options{}, func(r *difftest.Report) {
		done++
		if r.Failed() {
			failed++
		}
		if *verbose && done%1000 == 0 {
			fmt.Fprintf(errOut, "... %d/%d cases, %d failed\n", done, *cases, failed)
		}
	})

	fmt.Fprintf(out, "fuzzcert: %d cases in %v (seeds %d..%d)\n",
		sum.Cases, time.Since(start).Round(time.Millisecond), *seed, *seed+uint64(*cases)-1)
	fmt.Fprintf(out, "  translatable:  %d\n", sum.Translatable)
	fmt.Fprintf(out, "  brute-forced:  %d\n", sum.BruteForced)
	fmt.Fprintf(out, "  recall exact:  %d/%d\n", sum.RecallExact, sum.BruteForced)
	fmt.Fprintf(out, "  analyzer safe: %d\n", sum.AnalyzerSafe)
	// Cases on which the executor was compared with the definitional
	// evaluator, per route and semantics: Q out of all cases, Q⁺ and Q⋆
	// out of the translatable ones (fmt prints map keys sorted).
	fmt.Fprintf(out, "  reference ran: %v of %d (Q) / %d (Q⁺, Q⋆)\n", sum.Reference, sum.Cases, sum.Translatable)
	fmt.Fprintf(out, "  lowering changed and compared: %v\n", sum.Lowered)
	if len(sum.Skips) > 0 {
		fmt.Fprintf(out, "  skipped invariants: %v\n", sum.Skips)
	}
	if sum.Failed == 0 {
		fmt.Fprintln(out, "  violations:    0")
		return 0
	}

	fmt.Fprintf(out, "  VIOLATIONS:    %d case(s)\n\n", sum.Failed)
	for _, rep := range sum.Failures {
		fmt.Fprintln(out, rep.Summary())
		if *shrink {
			inv := rep.Violations[0].Invariant
			fmt.Fprintf(out, "shrinking seed %d on invariant %q ...\n", rep.Seed, inv)
			db, text := difftest.Minimize(rep.DB, rep.SQL, difftest.FailurePredicate(difftest.Options{}, inv))
			small := difftest.Check(db, text, difftest.Options{RequireValid: true})
			small.Seed = rep.Seed
			fmt.Fprintln(out, small.Summary())
			fmt.Fprintln(out, difftest.GoRepro(fmt.Sprintf("Seed%d", rep.Seed), db, text))
		}
	}
	return 1
}

// runChaos drives difftest chaos mode: failure semantics, not answers.
func runChaos(seed uint64, cases, parallelism int, out, errOut io.Writer, verbose bool) int {
	start := time.Now()
	done := 0
	sum := difftest.ChaosRun(seed, cases, parallelism, difftest.Options{}, func(r *difftest.ChaosReport) {
		done++
		if verbose && done%1000 == 0 {
			fmt.Fprintf(errOut, "... %d/%d cases\n", done, cases)
		}
	})
	fmt.Fprintf(out, "fuzzcert -chaos: %d cases in %v (seeds %d..%d)\n",
		sum.Cases, time.Since(start).Round(time.Millisecond), seed, seed+uint64(cases)-1)
	fmt.Fprintf(out, "  skipped:       %d (baseline over budget)\n", sum.Skipped)
	fmt.Fprintf(out, "  fault runs:    %d (%d fired)\n", sum.FaultRuns, sum.FaultsFired)
	fmt.Fprintf(out, "  cancels fired: %d\n", sum.CancelsFired)
	fmt.Fprintf(out, "  degraded:      %d\n", sum.Degraded)
	if sum.Failed == 0 {
		fmt.Fprintln(out, "  violations:    0")
		return 0
	}
	fmt.Fprintf(out, "  VIOLATIONS:    %d case(s)\n\n", sum.Failed)
	for _, rep := range sum.Failures {
		fmt.Fprintln(out, rep.Summary())
	}
	return 1
}
