package eval_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/schema"
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

// failureParallelism are the worker counts the failure-semantics tests
// below run at: the pool is the only fan-out, so a fault, panic,
// cancellation or budget trip must end the same way — one typed error,
// no table, consistent Stats — however many workers share the rows.
var failureParallelism = []int{2, 4}

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
	for _, par := range failureParallelism {
		baseGoroutines := runtime.NumGoroutine()

		ctx, cancel := context.WithCancel(context.Background())
		inj := faultinject.New(faultinject.Fault{Site: guard.SiteSemijoinProbe, Kind: faultinject.KindCancel, HitNumber: 1})
		inj.SetCancel(cancel)
		gov := guard.New(ctx, guard.Limits{})
		gov.SetFaultHook(inj)

		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		cancel()
		if !errors.Is(err, guard.ErrCanceled) || out != nil {
			t.Fatalf("P=%d mid-flight cancellation: got (%v, %v), want no table and guard.ErrCanceled", par, out, err)
		}
		var le *guard.LimitError
		if !errors.As(err, &le) || le.Op == "" {
			t.Fatalf("P=%d: cancellation should carry the operator path: %v", par, err)
		}
		if inj.Fired() == 0 {
			t.Fatalf("P=%d: cancel fault never fired", par)
		}
		settleGoroutines(t, baseGoroutines)

		// Canceled-run Stats are consistent: merged chunks never exceed a
		// full sequential run of the same operator tree.
		if got := ev.Stats().CostUnits; got > full.Stats().CostUnits {
			t.Fatalf("P=%d: canceled run counted %d cost units, more than full run's %d", par, got, full.Stats().CostUnits)
		}

		// The same database answers correctly on retry at full parallelism.
		retry := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par})
		got, rerr := retry.Eval(nestedLoopAnti)
		if rerr != nil {
			t.Fatalf("P=%d retry: %v", par, rerr)
		}
		if got.String() != want.String() {
			t.Fatalf("P=%d: retry after cancellation differs from sequential run", par)
		}
		if retry.Stats() != full.Stats() {
			t.Fatalf("P=%d: retry Stats %+v differ from sequential %+v", par, retry.Stats(), full.Stats())
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
	for _, par := range failureParallelism {
		baseGoroutines := runtime.NumGoroutine()
		gov := guard.Background(guard.Limits{MaxCostUnits: budget})
		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		if !errors.Is(err, guard.ErrCostBudget) || out != nil {
			t.Fatalf("P=%d: got (%v, %v), want no table and guard.ErrCostBudget", par, out, err)
		}
		settleGoroutines(t, baseGoroutines)
		spent, counted := gov.CostSpent(), ev.Stats().CostUnits
		if spent <= budget || counted < spent || counted >= full.Stats().CostUnits {
			t.Fatalf("P=%d: governor charged %d, Stats counted %d; want budget %d < charged <= counted < full run's %d",
				par, spent, counted, budget, full.Stats().CostUnits)
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
	for _, par := range failureParallelism {
		baseGoroutines := runtime.NumGoroutine()

		inj := faultinject.New(faultinject.Fault{Site: guard.SiteWorkerSpawn, Kind: faultinject.KindPanic, HitNumber: 2})
		gov := guard.Background(guard.Limits{})
		gov.SetFaultHook(inj)
		ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par, Governor: gov})
		out, err := ev.Eval(nestedLoopAnti)
		var ie *guard.InternalError
		if !errors.As(err, &ie) || out != nil {
			t.Fatalf("P=%d injected worker panic: got (%v, %v), want no table and *guard.InternalError", par, out, err)
		}
		if len(ie.Stack) == 0 || ie.Op == "" {
			t.Fatalf("P=%d: InternalError should carry op and stack: %+v", par, ie)
		}
		settleGoroutines(t, baseGoroutines)

		if _, err := ev.Eval(nestedLoopAnti); !errors.Is(err, eval.ErrPoisoned) {
			t.Fatalf("P=%d: poisoned evaluator must refuse reuse: %v", par, err)
		}

		// A fresh evaluator over the same database still answers.
		if _, err := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par}).Eval(nestedLoopAnti); err != nil {
			t.Fatalf("P=%d: fresh evaluator after contained panic: %v", par, err)
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
	for _, par := range failureParallelism {
		for _, site := range []guard.Site{guard.SiteScan, guard.SiteHashBuild, guard.SiteSemijoinProbe, guard.SiteWorkerSpawn, guard.SiteViewMaterialize} {
			inj := faultinject.New(faultinject.Fault{Site: site, Kind: faultinject.KindError, HitNumber: 1})
			gov := guard.Background(guard.Limits{})
			gov.SetFaultHook(inj)
			ev := eval.New(db, eval.Options{Semantics: value.SQL3VL, Parallelism: par, Governor: gov})
			out, err := ev.Eval(semi)
			if !errors.Is(err, faultinject.ErrInjected) || out != nil {
				t.Errorf("P=%d site %s: got (%v, %v), want no table and ErrInjected", par, site, out, err)
			}
			if inj.Fired() != 1 {
				t.Errorf("P=%d site %s: fired %d faults, want 1", par, site, inj.Fired())
			}
			if got := ev.Stats().CostUnits; got > full.Stats().CostUnits {
				t.Errorf("P=%d site %s: failed run counted %d cost units, more than the clean run's %d", par, site, got, full.Stats().CostUnits)
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

// TestIndexMemCharged plants indexes that the output's estimate does
// not cover. With a budget of exactly the output's estimate — all that
// grouping, DISTINCT, INTERSECT, EXCEPT and division charged while
// their indexes went uncharged — each must trip ErrMemBudget and leave
// nothing charged; with room, only the output stays charged once the
// operator is done. An index holds its smallest table (64 B) and an
// Insert-grown one each key's values, so grouping w on its one-valued
// column outweighs its one output row, and DISTINCT's index is charged
// beside the rows it has streamed. INTERSECT and EXCEPT keep four rows
// against a four-row build side, so that neither of their two indexes
// exceeds the output but the two together do; division's index over p
// and its index of p's prefixes likewise.
func TestIndexMemCharged(t *testing.T) {
	s := schema.New()
	for _, name := range []string{"w", "u", "v", "p"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{
			{Name: "s", Type: value.KindString}, {Name: "n", Type: value.KindInt}}})
	}
	s.MustAdd(&schema.Relation{Name: "q", Attrs: []schema.Attribute{{Name: "n", Type: value.KindInt}}})
	db := table.NewDatabase(s)
	str := func(i int) value.Value { return value.Str(fmt.Sprint(i)) }
	for i := 0; i < 100; i++ {
		ins(t, db, "w", table.Row{value.Str("k"), value.Int(int64(i % 4))})
		if i < 4 {
			ins(t, db, "u", table.Row{value.Str("k"), value.Int(int64(i))})
			ins(t, db, "v", table.Row{value.Str("v"), value.Int(int64(i))})
		}
		if i < 50 {
			ins(t, db, "p", table.Row{str(i), value.Int(0)}, table.Row{str(i), value.Int(1)})
		}
	}
	ins(t, db, "q", table.Row{value.Int(0)}, table.Row{value.Int(1)})
	w, u, v := algebra.Base{Name: "w", Cols: 2}, algebra.Base{Name: "u", Cols: 2}, algebra.Base{Name: "v", Cols: 2}
	for _, c := range []struct {
		name string
		e    algebra.Expr
	}{
		{"group-by", algebra.GroupBy{Child: w, Keys: []int{0}, Aggs: []algebra.AggSpec{{Func: algebra.AggCount, Col: -1}}}},
		{"distinct", algebra.Distinct{Child: w}},
		{"intersect", algebra.Intersect{L: w, R: u}},
		{"except", algebra.Diff{L: w, R: v}},
		{"division", algebra.Division{L: algebra.Base{Name: "p", Cols: 2}, R: algebra.Base{Name: "q", Cols: 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			gov := guard.Background(guard.Limits{})
			out, err := eval.New(db, eval.Options{Governor: gov}).Eval(c.e)
			if err != nil || out.Len() == 0 {
				t.Fatalf("unbudgeted: %v rows, err %v", out, err)
			}
			if live, est := gov.MemCharged(), out.EstimatedBytes(); live != est {
				t.Errorf("%d B charged once done, want the output's %d B", live, est)
			}
			gov = guard.Background(guard.Limits{MaxMemBytes: out.EstimatedBytes()})
			if _, err := eval.New(db, eval.Options{Governor: gov}).Eval(c.e); !errors.Is(err, guard.ErrMemBudget) {
				t.Fatalf("budget = the output's %d B: err = %v, want ErrMemBudget", out.EstimatedBytes(), err)
			}
			if live := gov.MemCharged(); live != 0 {
				t.Errorf("%d B still charged after the charge failed", live)
			}
		})
	}
}

// TestDivisionChargesItsDivisorIndex: division charges its index of
// R's distinct rows, which TestIndexMemCharged cannot single out (L's
// two indexes alone exceed the output's estimate). Two divisors of 40
// rows, 40 distinct values and one value, leave the inputs' estimates,
// L's indexes and the answer alike, so the peak charges differ by
// exactly what the two divisor indexes do.
func TestDivisionChargesItsDivisorIndex(t *testing.T) {
	s := schema.New()
	s.MustAdd(&schema.Relation{Name: "p", Attrs: []schema.Attribute{
		{Name: "s", Type: value.KindString}, {Name: "n", Type: value.KindInt}}})
	for _, name := range []string{"many", "one"} {
		s.MustAdd(&schema.Relation{Name: name, Attrs: []schema.Attribute{{Name: "n", Type: value.KindInt}}})
	}
	db := table.NewDatabase(s)
	many, one := table.NewIndex(40), table.NewIndex(40)
	for i := 0; i < 40; i++ {
		ins(t, db, "many", table.Row{value.Int(int64(i))})
		ins(t, db, "one", table.Row{value.Int(0)})
		many.Insert(table.Row{value.Int(int64(i))}, []int{0})
		one.Insert(table.Row{value.Int(0)}, []int{0})
		for _, pre := range []string{"a", "b", "c"} {
			ins(t, db, "p", table.Row{value.Str(pre), value.Int(int64(i))})
		}
	}
	peak := func(r string) int64 {
		gov := guard.Background(guard.Limits{})
		e := algebra.Division{L: algebra.Base{Name: "p", Cols: 2}, R: algebra.Base{Name: r, Cols: 1}}
		out, err := eval.New(db, eval.Options{Governor: gov}).Eval(e)
		if err != nil || out.Len() != 3 {
			t.Fatalf("p ÷ %s: %v, err %v; want the 3 prefixes", r, out, err)
		}
		return gov.MemHighWater()
	}
	if got, want := peak("many")-peak("one"), many.EstimatedBytes()-one.EstimatedBytes(); got != want || want <= 0 {
		t.Fatalf("p ÷ many peaks %d B above p ÷ one, want the divisor indexes' difference, %d B", got, want)
	}
}

// TestProductPollsBeforeAllocating: with no row budget, a product of
// 2 000 × 1 500 rows under an already-expired deadline fails with
// ErrDeadline before it allocates its rows. Sized up front, the row
// headers alone would take 72 MB; the bound here is 1 MiB.
func TestProductPollsBeforeAllocating(t *testing.T) {
	column := func(n int) *table.Table {
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{value.Int(int64(i))}
		}
		return table.FromRows(1, rows)
	}
	l, r := column(2000), column(1500)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ev := eval.New(newDB(t), eval.Options{Governor: guard.New(ctx, guard.Limits{MaxRows: -1})})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ev.Product(l, r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("product under an expired deadline: %v, want ErrDeadline", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("product allocated %d B before seeing the deadline", alloc)
	}
}
