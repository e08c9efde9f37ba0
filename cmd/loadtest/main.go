// Command loadtest is the closed-loop load generator and soak harness
// for certsqld: N concurrent workers replay the paper's Q1–Q4 (certain
// mode, seeded parameters) against a running server for a fixed
// duration, then report throughput, latency percentiles and the error
// budget. `make loadtest` drives it against a fresh certsqld via
// scripts/loadtest.sh and EXPERIMENTS.md records the measured tables.
//
// Usage:
//
//	loadtest -url http://127.0.0.1:7583 [-duration 30s] [-concurrency 8] [-sf 0.001]
//
// The exit status is non-zero when any request ended in a 5xx (an
// unmapped error escaped the server's typed-failure taxonomy) or when
// every request failed — a soak that cannot complete a single query is
// a harness bug, not a quiet success.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"certsql/internal/server/api"
	"certsql/internal/server/client"
	"certsql/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// result is one request's outcome.
type result struct {
	latency time.Duration
	status  int // 0 on transport errors, HTTP status otherwise
	err     bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	var (
		url      = fs.String("url", "", "base URL of the certsqld instance (required)")
		duration = fs.Duration("duration", 30*time.Second, "soak duration")
		workers  = fs.Int("concurrency", 8, "concurrent closed-loop workers")
		sf       = fs.Float64("sf", 0.001, "scale factor the server was seeded with (sizes the query parameters)")
		seed     = fs.Int64("seed", 1, "parameter seed; worker i uses seed+i")
		maxRows  = fs.Int("maxrows", 0, "per-request row-budget override (0 = server default)")
	)
	fs.Parse(args)
	if *url == "" {
		fmt.Fprintln(os.Stderr, "loadtest: -url is required")
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var (
		mu      sync.Mutex
		results []result
	)
	sizes := tpch.Config{ScaleFactor: *sf}.Sizes()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Retries are disabled: a 429/503 must count against the soak,
			// not be papered over — admission behaviour under saturation is
			// part of what the harness measures.
			c := client.New(*url, client.WithRetries(1))
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			for ctx.Err() == nil {
				qid := tpch.AllQueries[rng.Intn(len(tpch.AllQueries))]
				params := qid.Params(rng, sizes)
				t0 := time.Now()
				_, err := c.Query(ctx, qid.SQL(), params, "certain", client.QueryOptions{MaxRows: *maxRows})
				r := result{latency: time.Since(t0)}
				if err != nil {
					if ctx.Err() != nil {
						break // the soak deadline, not a server failure
					}
					r.err = true
					var ae *api.Error
					if errors.As(err, &ae) {
						r.status = ae.Status
					}
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: no request completed within the soak window")
		return 1
	}
	var (
		errs, fivexx int
		lats         []time.Duration
	)
	for _, r := range results {
		if r.err {
			errs++
			if r.status >= 500 {
				fivexx++
			}
			continue
		}
		lats = append(lats, r.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	qps := float64(len(lats)) / elapsed.Seconds()
	fmt.Printf("loadtest: %d requests in %v (%d workers)\n", len(results), elapsed.Round(time.Millisecond), *workers)
	fmt.Printf("  ok:   %d (%.1f qps)\n", len(lats), qps)
	fmt.Printf("  p50:  %v\n", pct(0.50).Round(time.Microsecond))
	fmt.Printf("  p95:  %v\n", pct(0.95).Round(time.Microsecond))
	fmt.Printf("  p99:  %v\n", pct(0.99).Round(time.Microsecond))
	fmt.Printf("  errors: %d (5xx: %d)\n", errs, fivexx)
	if fivexx > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL — %d responses were 5xx\n", fivexx)
		return 1
	}
	if len(lats) == 0 {
		fmt.Fprintln(os.Stderr, "loadtest: FAIL — every request failed")
		return 1
	}
	return 0
}
