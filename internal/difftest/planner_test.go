package difftest

import (
	"testing"

	"certsql/internal/qgen"
)

// FuzzPlannerAblation explores the seed space for cases where the
// cost-based planner diverges from the paper-faithful naive planner —
// any byte of difference, on any route, at any parallelism, is a bug.
func FuzzPlannerAblation(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if rep := CheckPlannerSeed(seed, qgen.Tuning{}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	})
}

// TestPlannerAblationSmoke is the CI smoke sweep: 200 seeded cases with
// the default generator plus 100 biased towards null-free schemas (so
// null-test elimination actually fires), all of which must pass the
// planner invariants.
func TestPlannerAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	t.Parallel()
	for seed := uint64(1); seed <= 200; seed++ {
		if rep := CheckPlannerSeed(seed, qgen.Tuning{}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	}
	for seed := uint64(1); seed <= 100; seed++ {
		if rep := CheckPlannerSeed(seed, qgen.Tuning{NullFreeProb: 0.6}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	}
}
