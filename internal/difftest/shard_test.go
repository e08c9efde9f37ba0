package difftest

import (
	"testing"

	"certsql/internal/qgen"
)

// FuzzShardAblation explores the seed space for cases where
// shard-routed execution diverges from the unsharded run — any byte
// of difference, at any shard count, on any route, under either
// planner, is a bug.
func FuzzShardAblation(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if rep := CheckShardSeed(seed, qgen.Tuning{}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	})
}

// TestShardAblationSmoke is the CI smoke sweep: 200 seeded cases with
// the default generator plus 100 biased towards null-free schemas — on
// those the statistics prove build sides null-free, so the co-partition
// path (not just broadcast) actually executes — all of which must pass
// the shard-ablation invariant.
func TestShardAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	t.Parallel()
	for seed := uint64(1); seed <= 200; seed++ {
		if rep := CheckShardSeed(seed, qgen.Tuning{}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	}
	for seed := uint64(1); seed <= 100; seed++ {
		if rep := CheckShardSeed(seed, qgen.Tuning{NullFreeProb: 0.6}); rep.Failed() {
			t.Fatal(rep.Summary())
		}
	}
}
