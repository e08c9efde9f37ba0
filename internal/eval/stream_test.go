package eval_test

import (
	"errors"
	"runtime"
	"testing"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/table"
	"certsql/internal/value"
)

// sharedSel builds Union{sel, sel} — the smallest plan with a shared
// subtree, so the WITH-view cache and its memory accounting engage.
func sharedSel() algebra.Expr {
	sel := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(1)}}}
	return algebra.Union{L: sel, R: sel}
}

// TestViewCacheChargeLifetime pins the cache-seam accounting bugfix:
// a view-cached table's memory charge must live exactly as long as the
// cached table does — not released when the operator that built it
// finishes (under-charge), and not charged again when a later
// occurrence or a later Eval hits the cache (double-charge).
func TestViewCacheChargeLifetime(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	// Cache off: the whole plan is one pipeline; when Eval returns the
	// only live charge is the root result — every intermediate charge
	// was released at its frame's exit.
	gov := guard.Background(guard.Limits{})
	ev := eval.New(db, eval.Options{Governor: gov, NoSubplanCache: true})
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gov.MemCharged(), res.EstimatedBytes(); got != want {
		t.Errorf("cache off: live charge = %d, want root result only (%d)", got, want)
	}

	// Cache on: the pinned view keeps its charge alive past the frame
	// that built it...
	gov = guard.Background(guard.Limits{})
	ev = eval.New(db, eval.Options{Governor: gov})
	res, err = ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stats().CacheHits == 0 {
		t.Fatal("shared subplan not cached")
	}
	c1 := gov.MemCharged()
	if c1 <= res.EstimatedBytes() {
		t.Errorf("cache on: live charge %d should exceed the root result %d (the pinned view's charge must persist)",
			c1, res.EstimatedBytes())
	}
	// ...and serving the same expression again from the cache charges
	// nothing new: the table was charged exactly once, when built.
	res2, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("second Eval should serve the cached root table")
	}
	if c2 := gov.MemCharged(); c2 != c1 {
		t.Errorf("cache hit changed the live charge: %d -> %d (want unchanged)", c1, c2)
	}
}

// TestViewPublicationFaultLeavesNoEntry pins the poisoning bugfix: a
// failure at the view-materialization site happens before publication,
// so the cache never holds a partially built entry — a retry recomputes
// the view and answers correctly.
func TestViewPublicationFaultLeavesNoEntry(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	gov := guard.Background(guard.Limits{})
	inj := faultinject.New(faultinject.Fault{Site: guard.SiteViewMaterialize, Kind: faultinject.KindError, HitNumber: 1})
	gov.SetFaultHook(inj)
	ev := eval.New(db, eval.Options{Governor: gov})
	if _, err := ev.Eval(e); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected publication fault surfaced as %v", err)
	}
	if inj.Fired() != 1 {
		t.Fatalf("fault fired %d times, want 1", inj.Fired())
	}
	if ev.Stats().CacheHits != 0 {
		t.Errorf("failed run recorded %d cache hits, want 0", ev.Stats().CacheHits)
	}
	// The retry (fault exhausted) must recompute from scratch and give
	// the right answer; a leftover partial entry would corrupt it.
	res, err := ev.Eval(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("retry after publication fault: %v", res.SortedStrings())
	}
}

// TestPanicPoisonsEvaluatorNotDatabase pins panic containment around
// the cache seams: an injected panic at the view-materialization site
// surfaces as *guard.InternalError, poisons that evaluator for good,
// and leaves the database fully usable by a fresh one.
func TestPanicPoisonsEvaluatorNotDatabase(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})
	e := sharedSel()

	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteViewMaterialize, Kind: faultinject.KindPanic, HitNumber: 1}))
	ev := eval.New(db, eval.Options{Governor: gov})
	_, err := ev.Eval(e)
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("injected panic surfaced as %v, want *guard.InternalError", err)
	}
	if _, err := ev.Eval(e); !errors.Is(err, eval.ErrPoisoned) {
		t.Errorf("poisoned evaluator accepted another Eval: %v", err)
	}
	res, err := eval.New(db, eval.Options{Governor: guard.Background(guard.Limits{})}).Eval(e)
	if err != nil {
		t.Fatalf("fresh evaluator on the same database: %v", err)
	}
	if res.Len() != 1 {
		t.Errorf("fresh evaluator result: %v", res.SortedStrings())
	}
}

// TestBatchPullFaults covers the streaming engine's per-batch fault
// site: an error injected at a batch pull surfaces typed, a panic is
// contained as *guard.InternalError.
func TestBatchPullFaults(t *testing.T) {
	db := newDB(t)
	ins(t, db, "r", table.Row{value.Int(1), value.Int(1)})

	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteBatchPull, Kind: faultinject.KindError, HitNumber: 1}))
	if _, err := eval.New(db, eval.Options{Governor: gov}).Eval(baseR); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("batch-pull error fault surfaced as %v", err)
	}

	gov = guard.Background(guard.Limits{})
	gov.SetFaultHook(faultinject.New(faultinject.Fault{Site: guard.SiteBatchPull, Kind: faultinject.KindPanic, HitNumber: 1}))
	ev := eval.New(db, eval.Options{Governor: gov})
	_, err := ev.Eval(baseR)
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Errorf("batch-pull panic fault surfaced as %v, want *guard.InternalError", err)
	}
	if _, err := ev.Eval(baseR); !errors.Is(err, eval.ErrPoisoned) {
		t.Errorf("evaluator not poisoned after contained panic: %v", err)
	}
}

// TestDrainCopiesRowsOnce gates the allocations of a drained pipeline:
// σ[a < 10 000] over 20 000 stored rows keeps every other row, and may
// allocate at most 2.5× the kept rows' pointer bytes (24 B a row). The
// filter's exact-size batches and the drain's one concatenation take
// 2×; growing the result by append a row at a time takes far more. The
// filter reads column a from the relation's copy, which belongs to the
// relation's generation, not to the drain: an unmeasured first run
// builds it (table's TestColumnBuildAllocs bounds that build).
func TestDrainCopiesRowsOnce(t *testing.T) {
	const rows, kept = 20000, 10000
	db := newDB(t)
	for i := 0; i < rows; i++ {
		a := int64(i / 2) // even positions keep a < kept, odd ones a ≥ kept
		if i%2 == 1 {
			a += kept
		}
		ins(t, db, "r", table.Row{value.Int(a), value.Int(int64(i))})
	}
	e := algebra.Select{Child: baseR, Cond: algebra.Cmp{Op: algebra.LT, L: algebra.Col{Idx: 0}, R: algebra.Lit{Val: value.Int(kept)}}}

	if _, err := eval.New(db, eval.Options{Parallelism: 1}).Eval(e); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := eval.New(db, eval.Options{Parallelism: 1}).Eval(e)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != kept {
		t.Fatalf("%d rows, want %d", got.Len(), kept)
	}
	ptrBytes := uint64(kept * 24)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d B, %.2f× the kept rows' %d pointer bytes", alloc, float64(alloc)/float64(ptrBytes), ptrBytes)
	if alloc > ptrBytes*5/2 {
		t.Errorf("allocated %d B, more than 2.5× the kept rows' %d pointer bytes", alloc, ptrBytes)
	}
}

// TestDrainResultDoesNotAliasStorage: a LIMIT over a scan drains one
// batch, which shares the stored relation's array. Appending to the
// result must not write into that array, and must not change the
// relation's rows or generation.
func TestDrainResultDoesNotAliasStorage(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 8; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(int64(i))})
	}
	stored := db.MustTable("r")
	gen, want := stored.Generation(), stored.String()
	res, err := eval.New(db, eval.Options{}).Eval(algebra.Limit{Child: baseR, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("%d rows, want 3", res.Len())
	}
	res.Append(table.Row{value.Int(-1), value.Int(-1)})
	if got := stored.String(); got != want {
		t.Errorf("appending to the result changed the stored relation:\n%s\nwant\n%s", got, want)
	}
	if stored.Generation() != gen {
		t.Errorf("stored generation %d, want %d", stored.Generation(), gen)
	}
	if res.Row(3)[0] != value.Int(-1) || res.Len() != 4 {
		t.Errorf("result after append: %v", res)
	}
}
