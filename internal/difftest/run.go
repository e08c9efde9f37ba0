package difftest

import (
	"runtime"
	"strings"
	"sync"
)

// RunSummary aggregates a batch of seed-driven oracle runs.
type RunSummary struct {
	// Cases is the number of cases checked.
	Cases int
	// Failed counts cases with at least one violation; Failures holds
	// their reports (up to MaxFailures each run).
	Failed   int
	Failures []*Report
	// Translatable counts cases whose query admits the certain-answer
	// translation; BruteForced those where the ground truth fit in the
	// budget; RecallExact those with Q⁺(D) = cert(Q, D).
	Translatable int
	BruteForced  int
	RecallExact  int
	// AnalyzerSafe counts cases the static analyzer proved safe.
	AnalyzerSafe int
	// Reference counts, per route/semantics pair ("Q/sql3vl", …), the
	// cases on which the reference invariant was compared rather than
	// skipped — a silently idle oracle shows up here as a low count.
	Reference map[string]int
	// Lowered counts, per route/semantics pair, the cases on which the
	// lowering invariant compared a plan the lowering changed.
	Lowered map[string]int
	// Skips counts skipped invariants by reason prefix.
	Skips map[string]int
}

// MaxFailures bounds the reports kept by Run; the count is exact either
// way.
const MaxFailures = 10

// Run checks the seeds start … start+cases-1 over the given number of
// workers (0 = GOMAXPROCS). Each case is independent, so the summary is
// deterministic regardless of worker count. The optional progress
// callback receives each finished report (serialized).
func Run(start uint64, cases, workers int, opts Options, progress func(*Report)) RunSummary {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sum := RunSummary{Cases: cases, Reference: map[string]int{}, Lowered: map[string]int{}, Skips: map[string]int{}}
	reports := make([]*Report, cases)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= cases {
					return
				}
				rep := CheckSeed(start+uint64(i), opts)
				mu.Lock()
				reports[i] = rep
				if progress != nil {
					progress(rep)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, rep := range reports {
		if rep.Failed() {
			sum.Failed++
			if len(sum.Failures) < MaxFailures {
				sum.Failures = append(sum.Failures, rep)
			}
		}
		if rep.Translatable {
			sum.Translatable++
		}
		if rep.BruteForced {
			sum.BruteForced++
		}
		if rep.RecallExact {
			sum.RecallExact++
		}
		if rep.AnalyzerSafe {
			sum.AnalyzerSafe++
		}
		for _, label := range rep.Reference {
			sum.Reference[label]++
		}
		for _, label := range rep.Lowered {
			sum.Lowered[label]++
		}
		for _, s := range rep.Skips {
			if i := strings.IndexByte(s, ':'); i > 0 {
				s = s[:i]
			}
			sum.Skips[s]++
		}
	}
	return sum
}
