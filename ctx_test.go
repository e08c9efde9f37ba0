package certsql_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
)

// ctxDB builds an instance large enough that the Q⁺ anti-semijoin runs
// a long nested loop (the condition below defeats hashing), giving
// mid-flight cancellation plenty of polls to land on.
func ctxDB(t testing.TB, n int) *certsql.DB {
	t.Helper()
	db := certsql.MustOpen(
		certsql.Table{
			Name: "emp",
			Columns: []certsql.Column{
				{Name: "id", Type: certsql.TInt},
				{Name: "dept", Type: certsql.TInt},
			},
		},
		certsql.Table{
			Name: "badge",
			Columns: []certsql.Column{
				{Name: "emp_id", Type: certsql.TInt},
			},
		},
	)
	for i := 0; i < n; i++ {
		if err := db.Insert("emp", i, i%7); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("badge", i+n); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// ctxQuery is hash-defeating (the OR disjunct) so every executor
// configuration runs the quadratic nested-loop strategy.
const ctxQuery = `SELECT CERTAIN id FROM emp WHERE NOT EXISTS (SELECT * FROM badge WHERE emp_id = id OR emp_id IS NULL)`

// TestQueryContextPreCanceled asserts an already-canceled context is
// rejected in O(1), before the query is parsed: even unparseable text
// returns the cancellation error.
func TestQueryContextPreCanceled(t *testing.T) {
	db := ctxDB(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "THIS IS NOT SQL", nil); !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled before parse", err)
	}
	if _, err := db.QueryContext(ctx, ctxQuery, nil); !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
}

// TestQueryContextDeadline asserts deadline expiry surfaces as
// ErrDeadline, distinct from plain cancellation.
func TestQueryContextDeadline(t *testing.T) {
	db := ctxDB(t, 5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := db.QueryContext(ctx, ctxQuery, nil); !errors.Is(err, certsql.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestQueryContextCancelMidFlightAblations cancels the evaluation from
// inside the engine (a seeded fault at the first base-table scan) and
// asserts guard.ErrCanceled surfaces through the public API in every
// executor ablation, with no goroutine leak and a correct retry.
func TestQueryContextCancelMidFlightAblations(t *testing.T) {
	db := ctxDB(t, 1500)
	want, err := db.Query(ctxQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	ablations := map[string]certsql.Options{
		"baseline":         {},
		"no-hash-join":     {NoHashJoin: true},
		"no-view-cache":    {NoViewCache: true},
		"no-short-circuit": {NoShortCircuit: true},
		"no-fast-path":     {NoAnalyzerFastPath: true},
	}
	for name, opts := range ablations {
		t.Run(name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			inj := faultinject.New(faultinject.Fault{Site: guard.SiteScan, Kind: faultinject.KindCancel, HitNumber: 1})
			inj.SetCancel(cancel)
			gov := guard.New(ctx, guard.Limits{})
			gov.SetFaultHook(inj)
			opts.Guard = gov
			opts.Parallelism = 4

			_, err := db.QueryWithOptionsContext(ctx, ctxQuery, nil, opts)
			if !errors.Is(err, guard.ErrCanceled) {
				t.Fatalf("mid-flight cancel: got %v, want guard.ErrCanceled", err)
			}
			if inj.Fired() == 0 {
				t.Fatal("cancel fault never fired")
			}
			settleCtxGoroutines(t, baseGoroutines)

			opts.Guard = nil
			got, err := db.QueryWithOptions(ctxQuery, nil, opts)
			if err != nil {
				t.Fatalf("retry: %v", err)
			}
			if fmt.Sprint(got.SortedStrings()) != fmt.Sprint(want.SortedStrings()) {
				t.Fatal("retry after cancellation differs from clean run")
			}
		})
	}
}

// TestDegradeLadder asserts the opt-in degradation: a potential-answer
// query whose Q⋆ translation exceeds the cost budget returns the
// certain answers with Degraded set and a machine-readable warning —
// and the degraded rows are exactly what the certain route produces.
func TestDegradeLadder(t *testing.T) {
	pair := []certsql.Column{{Name: "a", Type: certsql.TInt}, {Name: "b", Type: certsql.TInt}}
	db := certsql.MustOpen(
		certsql.Table{Name: "seen", Columns: pair},
		certsql.Table{Name: "known", Columns: pair},
	)
	for i := 0; i < 200; i++ {
		if err := db.Insert("known", i, i); err != nil {
			t.Fatal(err)
		}
		// Half the sightings are known pairs; the rest have an unknown
		// first component and a second one no known pair carries.
		var err error
		if i%2 == 0 {
			err = db.Insert("seen", i, i)
		} else {
			err = db.Insert("seen", certsql.NULL, 1000+i)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Q⋆ of an intersection is the unification semijoin seen ⋉⇑ known.
	// A probe row with a null can unify with build rows of any hash
	// bucket, so each of the 100 half-unknown sightings scans all 200
	// known pairs and finds nothing (~2·10⁴ cost units); Q⁺ of the same
	// query is a plain hashed intersection (~10³). The budget is sized
	// between the two, so the Q⋆ route trips while the certain rerun —
	// under a fresh budget of the same size — completes.
	q := `SELECT a, b FROM seen INTERSECT SELECT a, b FROM known`
	opts := certsql.Options{MaxCostUnits: 10_000}

	if _, err := db.QueryPossibleWithOptions(q, nil, opts); !errors.Is(err, certsql.ErrBudget) {
		t.Fatalf("Q⋆ without Degrade: got %v, want ErrBudget", err)
	}

	opts.Degrade = true
	res, err := db.QueryPossibleWithOptions(q, nil, opts)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !res.Degraded || !res.Certain || res.Possible {
		t.Fatalf("degraded result flags: Degraded=%v Certain=%v Possible=%v", res.Degraded, res.Certain, res.Possible)
	}
	found := false
	for _, w := range res.Warnings {
		if w.Code == certsql.WarnDegradedToCertain && w.Message != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing %q warning: %+v", certsql.WarnDegradedToCertain, res.Warnings)
	}
	sure, err := db.QueryCertain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.SortedStrings()) != fmt.Sprint(sure.SortedStrings()) {
		t.Fatal("degraded rows differ from the certain answers")
	}

	// Cancellation must never degrade: the caller has gone away.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryPossibleWithOptionsContext(ctx, q, nil, opts); !errors.Is(err, certsql.ErrCanceled) {
		t.Fatalf("canceled degrade-enabled query: got %v, want ErrCanceled", err)
	}
}

// TestDifferenceCostBudget is the regression test for the unification
// antijoin's budget accounting: it used to charge |L|·|R| cost units up
// front whatever work it was about to do, so a cost budget rejected
// every sizeable EXCEPT. It now charges per probe and per candidate: a
// difference of two 2000-row null-free tables is linear and passes, and
// the same query still trips the budget when every build row is wild —
// each probe then has to try all 2000 of them.
func TestDifferenceCostBudget(t *testing.T) {
	run := func(wild bool) (*certsql.Result, error) {
		cols := []certsql.Column{{Name: "a", Type: certsql.TInt}, {Name: "b", Type: certsql.TInt}}
		db := certsql.MustOpen(certsql.Table{Name: "l", Columns: cols}, certsql.Table{Name: "r", Columns: cols})
		for i := 0; i < 2000; i++ {
			// r's second column never occurs in l, so no r row unifies
			// with an l row, null first column or not.
			var ra any = i + 1000
			if wild {
				ra = certsql.NULL
			}
			if err := errors.Join(db.Insert("l", i, i), db.Insert("r", ra, i+5000)); err != nil {
				t.Fatal(err)
			}
		}
		return db.QueryWithOptions(`SELECT CERTAIN a, b FROM l EXCEPT SELECT a, b FROM r`, nil,
			certsql.Options{MaxCostUnits: 50_000})
	}
	res, err := run(false)
	if err != nil {
		t.Fatalf("null-free difference under a 50k budget: %v", err)
	}
	if res.Len() != 2000 || res.Stats.UnifyJoins != 1 {
		t.Fatalf("null-free difference: %d rows, %s", res.Len(), res.Stats.Summary())
	}
	if _, err := run(true); !errors.Is(err, certsql.ErrCostBudget) {
		t.Fatalf("all-wild build side: got %v, want ErrCostBudget", err)
	}
}

// TestFacadePanicContained asserts an engine panic surfaces from the
// public API as a typed *InternalError, never as a process crash.
func TestFacadePanicContained(t *testing.T) {
	db := ctxDB(t, 300)
	inj := faultinject.New(faultinject.Fault{Site: guard.SiteScan, Kind: faultinject.KindPanic, HitNumber: 1})
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(inj)
	_, err := db.QueryWithOptions(ctxQuery, nil, certsql.Options{Guard: gov})
	var ie *certsql.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want *certsql.InternalError", err)
	}
	if ie.Op == "" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError should carry op and stack: %+v", ie)
	}
	// The database is still usable afterwards.
	if _, err := db.Query(ctxQuery, nil); err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
}

// settleCtxGoroutines waits for the goroutine count to drain back to
// at most base.
func settleCtxGoroutines(t *testing.T, base int) {
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
