package eval_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/table"
	"certsql/internal/value"
)

// bigNestedLoopDB fills r and s so that r ANTIJOIN s runs a quadratic
// nested loop large enough for every parallel worker to get a chunk
// well past the amortized poll interval.
func bigNestedLoopDB(t *testing.T, n int) *table.Database {
	t.Helper()
	db := newDB(t)
	for i := 0; i < n; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(int64(i % 7))})
		ins(t, db, "s", table.Row{value.Int(int64(i + n)), value.Int(int64(i % 5))})
	}
	return db
}

// nestedLoopAnti is NOT EXISTS with an OR-disjunct condition, the
// hash-defeating shape of Section 7; it forces the nested-loop
// strategy.
var nestedLoopAnti = algebra.SemiJoin{
	L:    baseR,
	R:    baseS,
	Anti: true,
	Cond: algebra.Or{Conds: []algebra.Cond{
		algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
		algebra.NullTest{Operand: algebra.Col{Idx: 2}},
	}},
}

// settleGoroutines waits for the goroutine count to return to at most
// base, tolerating runtime bookkeeping lag.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// failureShards are the Shards settings the failure-semantics tests
// below run at: the pool is the only fan-out, so a fault, panic,
// cancellation or budget trip must end the same way — one typed error,
// no table, consistent Stats — whether workers visit rows by position
// or grouped by owning shard.
var failureShards = []int{0, 3}

// TestCancelMidParallelScan cancels the evaluation from inside a
// semijoin probe partition (a seeded mid-flight point) and asserts the
// typed error, no goroutine leak, and that a clean retry on the same
// database reproduces the sequential result and Stats exactly.
func TestCancelMidParallelScan(t *testing.T) {
	db := bigNestedLoopDB(t, 3000)
	full := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
	want, ferr := full.Eval(nestedLoopAnti)
	if ferr != nil {
		t.Fatalf("clean run: %v", ferr)
	}
	for _, shards := range failureShards {
		baseGoroutines := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		inj := faultinject.New(faultinject.Fault{Site: guard.SiteSemijoinProbe, Kind: faultinject.KindCancel, HitNumber: 1})
		inj.SetCancel(cancel)
		gov := guard.New(ctx, guard.Limits{})
		gov.SetFaultHook(inj)

		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 4, Shards: shards, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		cancel()
		if !errors.Is(err, guard.ErrCanceled) || out != nil {
			t.Fatalf("Shards=%d mid-flight cancellation: got (%v, %v), want no table and guard.ErrCanceled", shards, out, err)
		}
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Op == "" {
			t.Fatalf("Shards=%d: cancellation should carry the operator path: %v", shards, err)
		}
		if inj.Fired() == 0 {
			t.Fatalf("Shards=%d: cancel fault never fired", shards)
		}
		settleGoroutines(t, baseGoroutines)

		// Canceled-run Stats are consistent: merged shards never exceed a
		// full sequential run of the same operator tree.
		if got := ev.Stats().CostUnits; got > full.Stats().CostUnits {
			t.Fatalf("Shards=%d: canceled run counted %d cost units, more than full run's %d", shards, got, full.Stats().CostUnits)
		}

		// The same database answers correctly on retry at full parallelism.
		retry := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 4, Shards: shards})
		got, rerr := retry.Eval(nestedLoopAnti)
		if rerr != nil {
			t.Fatalf("Shards=%d retry: %v", shards, rerr)
		}
		if got.String() != want.String() {
			t.Fatalf("Shards=%d: retry after cancellation differs from sequential run", shards)
		}
		retryStats := retry.Stats()
		retryStats.ShardScatters = 0 // the one counter that says rows were routed
		if retryStats != full.Stats() {
			t.Fatalf("Shards=%d: retry Stats %+v differ from sequential %+v", shards, retry.Stats(), full.Stats())
		}
	}
}

// TestCostBudgetTripsMidProbe gives the antijoin a cost budget that
// covers its scans and build but not its probes: the trip is observed
// by a pool worker between rows and must stop every other worker,
// surface as one ErrCostBudget with no table, and leave Stats covering
// at least what the governor was charged and less than the full run.
func TestCostBudgetTripsMidProbe(t *testing.T) {
	db := bigNestedLoopDB(t, 3000)
	full := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
	if _, err := full.Eval(nestedLoopAnti); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	budget := full.Stats().CostUnits - 2000 // the 3000 probes cost a unit each
	for _, shards := range failureShards {
		baseGoroutines := runtime.NumGoroutine()
		gov := guard.Background(guard.Limits{MaxCostUnits: budget})
		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 4, Shards: shards, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		if !errors.Is(err, guard.ErrCostBudget) || out != nil {
			t.Fatalf("Shards=%d: got (%v, %v), want no table and guard.ErrCostBudget", shards, out, err)
		}
		settleGoroutines(t, baseGoroutines)
		spent, counted := gov.CostSpent(), ev.Stats().CostUnits
		if spent <= budget || counted < spent || counted >= full.Stats().CostUnits {
			t.Fatalf("Shards=%d: governor charged %d, Stats counted %d; want budget %d < charged <= counted < full run's %d",
				shards, spent, counted, budget, full.Stats().CostUnits)
		}
	}
}

// TestPreCanceledContext asserts an already-canceled context stops the
// evaluation at the first operator boundary.
func TestPreCanceledContext(t *testing.T) {
	db := bigNestedLoopDB(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := eval.New(db, eval.Options{Governor: guard.New(ctx, guard.Limits{})})
	if _, err := ev.Eval(nestedLoopAnti); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("got %v, want guard.ErrCanceled", err)
	}
	if ev.Stats().CostUnits != 0 {
		t.Fatalf("pre-canceled evaluation did work: %d cost units", ev.Stats().CostUnits)
	}
}

// TestDeadlineExpiry asserts an expired deadline surfaces as
// ErrDeadline, not ErrCanceled.
func TestDeadlineExpiry(t *testing.T) {
	db := bigNestedLoopDB(t, 300)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	ev := eval.New(db, eval.Options{Governor: guard.New(ctx, guard.Limits{})})
	if _, err := ev.Eval(nestedLoopAnti); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want guard.ErrDeadline", err)
	}
}

// TestWorkerPanicContained injects a panic inside a parallel worker
// and asserts it surfaces as a *guard.InternalError (never a process
// crash), leaks no goroutines, and poisons the evaluator against
// silent reuse — while the database itself stays usable.
func TestWorkerPanicContained(t *testing.T) {
	db := bigNestedLoopDB(t, 3000)
	for _, shards := range failureShards {
		baseGoroutines := runtime.NumGoroutine()

		inj := faultinject.New(faultinject.Fault{Site: guard.SiteWorkerSpawn, Kind: faultinject.KindPanic, HitNumber: 2})
		gov := guard.Background(guard.Limits{})
		gov.SetFaultHook(inj)
		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 4, Shards: shards, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		var ie *guard.InternalError
		if !errors.As(err, &ie) || out != nil {
			t.Fatalf("Shards=%d injected worker panic: got (%v, %v), want no table and *guard.InternalError", shards, out, err)
		}
		if len(ie.Stack) == 0 || ie.Op == "" {
			t.Fatalf("Shards=%d: InternalError should carry op and stack: %+v", shards, ie)
		}
		settleGoroutines(t, baseGoroutines)

		if _, err := ev.Eval(nestedLoopAnti); !errors.Is(err, eval.ErrPoisoned) {
			t.Fatalf("Shards=%d: poisoned evaluator must refuse reuse: %v", shards, err)
		}

		// A fresh evaluator over the same database still answers.
		if _, err := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 4, Shards: shards}).Eval(nestedLoopAnti); err != nil {
			t.Fatalf("Shards=%d: fresh evaluator after contained panic: %v", shards, err)
		}
	}
}

// TestCoordinatorPanicContained injects a panic at a coordinator-side
// site (the hash build) and asserts Eval recovers it.
func TestCoordinatorPanicContained(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 10; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(0)})
		ins(t, db, "s", table.Row{value.Int(int64(i)), value.Int(1)})
	}
	join := algebra.Select{
		Child: algebra.Product{L: baseR, R: baseS},
		Cond:  algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 0}, R: algebra.Col{Idx: 2}},
	}
	inj := faultinject.New(faultinject.Fault{Site: guard.SiteHashBuild, Kind: faultinject.KindPanic, HitNumber: 1})
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(inj)
	ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Governor: gov})
	_, err := ev.Eval(join)
	var ie *guard.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *guard.InternalError", err)
	}
}

// TestInjectedErrorFaults walks every engine fault site with an
// error-kind fault and asserts the typed sentinel surfaces.
func TestInjectedErrorFaults(t *testing.T) {
	// A semijoin with a hash key exercises scan, hash build, probe,
	// worker spawn, and (for its subplans) view materialization.
	semi := algebra.SemiJoin{
		L:    baseR,
		R:    baseS,
		Cond: algebra.Cmp{Op: algebra.EQ, L: algebra.Col{Idx: 1}, R: algebra.Col{Idx: 3}},
	}
	db := bigNestedLoopDB(t, 1200)
	full := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 1})
	if _, err := full.Eval(semi); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for _, shards := range failureShards {
		for _, site := range []guard.Site{guard.SiteScan, guard.SiteHashBuild, guard.SiteSemijoinProbe, guard.SiteWorkerSpawn, guard.SiteViewMaterialize} {
			inj := faultinject.New(faultinject.Fault{Site: site, Kind: faultinject.KindError, HitNumber: 1})
			gov := guard.Background(guard.Limits{})
			gov.SetFaultHook(inj)
			ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: 2, Shards: shards, Governor: gov})
			out, err := ev.Eval(semi)
			if !errors.Is(err, faultinject.ErrInjected) || out != nil {
				t.Errorf("Shards=%d site %s: got (%v, %v), want no table and ErrInjected", shards, site, out, err)
			}
			if inj.Fired() != 1 {
				t.Errorf("Shards=%d site %s: fired %d faults, want 1", shards, site, inj.Fired())
			}
			if got := ev.Stats().CostUnits; got > full.Stats().CostUnits {
				t.Errorf("Shards=%d site %s: failed run counted %d cost units, more than the clean run's %d", shards, site, got, full.Stats().CostUnits)
			}
		}
	}
}

// TestMemBudgetTripsAtOperatorBoundary gives the evaluation a byte
// budget smaller than one scan's estimate.
func TestMemBudgetTripsAtOperatorBoundary(t *testing.T) {
	db := newDB(t)
	for i := 0; i < 100; i++ {
		ins(t, db, "r", table.Row{value.Int(int64(i)), value.Int(0)})
	}
	gov := guard.Background(guard.Limits{MaxMemBytes: 64})
	ev := eval.New(db, eval.Options{Governor: gov})
	_, err := ev.Eval(baseR)
	if !errors.Is(err, guard.ErrMemBudget) || !errors.Is(err, eval.ErrTooLarge) {
		t.Fatalf("got %v, want ErrMemBudget (matching eval.ErrTooLarge)", err)
	}
	// With slack the same scan fits and charges a plausible estimate.
	gov = guard.Background(guard.Limits{MaxMemBytes: 1 << 20})
	ev = eval.New(db, eval.Options{Governor: gov})
	if _, err := ev.Eval(baseR); err != nil {
		t.Fatalf("scan within budget: %v", err)
	}
	if gov.MemCharged() <= 0 {
		t.Fatal("memory accounting charged nothing")
	}
}
