package certain_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"certsql/internal/certain"
	"certsql/internal/compile"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/refeval"
	"certsql/internal/sql"
	"certsql/internal/table"
)

// bruteCompile parses and compiles one query against db's schema.
func bruteCompile(t *testing.T, db *table.Database, query string) *compile.Compiled {
	t.Helper()
	q, err := sql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := compile.Compile(q, db.Schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

// TestBruteForceCancelMidEnumeration cancels the valuation enumeration
// at seeded points and asserts the typed cancellation error surfaces,
// the worker pool drains back to the goroutine baseline, and a clean
// retry over the same database reproduces the full certain answers.
func TestBruteForceCancelMidEnumeration(t *testing.T) {
	db := bruteDB(t)
	// The certain answer must be non-empty: the workers stop as soon as
	// no candidate survives, and the later cancellation points would
	// then never be reached. Here (2) survives every valuation, so every
	// valuation runs, and the reference run counts them.
	query := `SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE r.a = s.a)`
	compiled := bruteCompile(t, db, query)

	count := faultinject.New()
	countGov := guard.Background(guard.Limits{})
	countGov.SetFaultHook(count)
	want, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Parallelism: 1, Governor: countGov})
	if err != nil {
		t.Fatal(err)
	}
	total := count.Hits(guard.SiteValuation)
	if want.Len() == 0 || total < 3 {
		t.Fatalf("fixture needs a non-empty certain answer and several valuations: %d rows, %d valuations", want.Len(), total)
	}
	baseGoroutines := runtime.NumGoroutine()

	// Cancel at the first valuation, mid-stream, and at the last one.
	for _, hit := range []int{1, total / 2, total} {
		ctx, cancel := context.WithCancel(context.Background())
		inj := faultinject.New(faultinject.Fault{Site: guard.SiteValuation, Kind: faultinject.KindCancel, HitNumber: hit})
		inj.SetCancel(cancel)
		gov := guard.New(ctx, guard.Limits{})
		gov.SetFaultHook(inj)

		_, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Parallelism: 4, Governor: gov})
		cancel()
		if !errors.Is(err, guard.ErrCanceled) {
			t.Fatalf("hit %d: got %v, want guard.ErrCanceled", hit, err)
		}
		if inj.Fired() == 0 {
			t.Fatalf("hit %d: cancel fault never fired", hit)
		}
		settleBruteGoroutines(t, baseGoroutines)

		// The same database answers correctly on retry.
		got, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Parallelism: 4, Governor: guard.Background(guard.Limits{})})
		if err != nil {
			t.Fatalf("hit %d retry: %v", hit, err)
		}
		if got.String() != want.String() {
			t.Fatalf("hit %d: retry after cancellation differs from reference", hit)
		}
	}
}

// TestBruteForcePreCanceledContext asserts an already-canceled context
// stops the enumeration before any valuation is evaluated.
func TestBruteForcePreCanceledContext(t *testing.T) {
	db := bruteDB(t)
	compiled := bruteCompile(t, db, `SELECT r.a FROM r`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Governor: guard.New(ctx, guard.Limits{})})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("got %v, want guard.ErrCanceled", err)
	}
}

// TestBruteForceInjectedValuationError asserts an error-kind fault at
// the valuation site aborts the enumeration with the injected sentinel
// instead of being swallowed by a worker.
func TestBruteForceInjectedValuationError(t *testing.T) {
	db := bruteDB(t)
	compiled := bruteCompile(t, db, `SELECT r.a FROM r WHERE EXISTS (SELECT * FROM s WHERE r.a = s.a)`)
	baseGoroutines := runtime.NumGoroutine()

	inj := faultinject.New(faultinject.Fault{Site: guard.SiteValuation, Kind: faultinject.KindError, HitNumber: 5})
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(inj)
	_, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Parallelism: 3, Governor: gov})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	settleBruteGoroutines(t, baseGoroutines)
}

// TestBruteForceRefusesLimit asserts a plan with a LIMIT is refused
// before any valuation is evaluated: which rows come first is not fixed
// by the algebra, so there is no certain answer to enumerate.
func TestBruteForceRefusesLimit(t *testing.T) {
	db := bruteDB(t)
	compiled := bruteCompile(t, db, `SELECT r.a FROM r LIMIT 1`)
	count := faultinject.New()
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(count)
	_, err := certain.CertainAnswers(compiled.Expr, db, certain.BruteForceOptions{Governor: gov})
	if !errors.Is(err, refeval.ErrLimit) {
		t.Fatalf("got %v, want refeval.ErrLimit", err)
	}
	if n := count.Hits(guard.SiteValuation); n != 0 {
		t.Fatalf("%d valuations evaluated before the LIMIT was refused", n)
	}
}

// settleBruteGoroutines waits for the goroutine count to return to at
// most base, tolerating runtime bookkeeping lag.
func settleBruteGoroutines(t *testing.T, base int) {
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
