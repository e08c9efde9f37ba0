package difftest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"certsql"
	"certsql/internal/compile"
	"certsql/internal/guard"
	"certsql/internal/guard/faultinject"
	"certsql/internal/qgen"
	"certsql/internal/sql"
)

// Chaos mode replays seeded qgen cases under injected faults and
// random-point cancellation, asserting the pipeline's failure
// semantics rather than its answers:
//
//   - an injected fault surfaces as an error through the public API —
//     never a panic (panic-kind faults must come back as
//     *guard.InternalError) — or does not fire at all;
//   - a run that reports success returns the complete, correct result:
//     partial results are never passed off as complete;
//   - after any fault or cancellation, the same database answers
//     correctly on a clean retry (no poisoned shared state);
//   - the opt-in degradation ladder only ever returns sound results:
//     a Degraded result equals the certain answers exactly;
//   - the executor agrees with the definitional evaluator (the
//     reference invariant) on every clean chaos case;
//   - a panic injected at the view-materialization site never poisons
//     a cache: the next clean execution of the same prepared statement
//     serves the cached plan and the baseline answer.
//
// Goroutine-baseline checks live in the chaos test, not here: the
// per-case runs share the process, so only a suite-level settle is
// meaningful.

// ChaosReport is the outcome of one chaos case.
type ChaosReport struct {
	// Seed is the qgen seed of the case.
	Seed uint64
	// SQL is the query text of the case.
	SQL string
	// Violations lists broken failure-semantics invariants.
	Violations []Violation
	// FaultRuns counts fault-injected runs executed; FaultsFired how
	// many of them actually hit their planned fault.
	FaultRuns   int
	FaultsFired int
	// CancelFired reports whether the random-point cancellation landed.
	CancelFired bool
	// Degraded reports whether the degradation ladder engaged.
	Degraded bool
	// Skipped, when non-empty, explains why the case was not chaos-
	// checked (e.g. its clean run already exceeds the budget).
	Skipped string
}

// Failed reports whether any invariant broke.
func (r *ChaosReport) Failed() bool { return len(r.Violations) > 0 }

func (r *ChaosReport) violate(invariant, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Summary renders the report for logs and t.Fatal messages.
func (r *ChaosReport) Summary() string {
	var b strings.Builder
	if r.Failed() {
		fmt.Fprintf(&b, "chaos: %d invariant(s) violated (seed %d)\n", len(r.Violations), r.Seed)
	} else {
		fmt.Fprintf(&b, "chaos: ok (seed %d)\n", r.Seed)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  [%s] %s\n", v.Invariant, v.Detail)
	}
	fmt.Fprintf(&b, "  query: %s\n", r.SQL)
	fmt.Fprintf(&b, "  fault runs: %d (%d fired), cancel fired: %v, degraded: %v\n",
		r.FaultRuns, r.FaultsFired, r.CancelFired, r.Degraded)
	return b.String()
}

// chaosFaults is the number of distinct-site faults per case.
const chaosFaults = 3

// ChaosSeed generates the case for one seed and replays it under a
// seeded fault plan (chaosFaults distinct sites, each in its own run),
// one random-point cancellation, and one budget-degradation probe.
func ChaosSeed(seed uint64, opts Options) *ChaosReport {
	rng := rand.New(rand.NewSource(int64(seed)))
	db, text := qgen.Case(rng, opts.Tuning)
	rep := &ChaosReport{Seed: seed, SQL: text}
	fdb := certsql.FromInternal(db)
	par := opts.parallelism()

	// Clean baselines. Budget-bound cases are skipped, not failed: the
	// chaos invariants compare against a known-good answer.
	base, err := fdb.QueryWithOptions(text, nil, certsql.Options{Parallelism: par})
	if err != nil {
		if budgetErr(err) {
			rep.Skipped = "baseline: " + err.Error()
			return rep
		}
		rep.violate("baseline", "clean run failed: %v", err)
		return rep
	}
	// Engine cross-check: the chaos corpus doubles as an oracle corpus —
	// the executor must agree with the definitional evaluator on it.
	if q, err := sql.Parse(text); err == nil {
		if compiled, err := compile.Compile(q, db.Schema, nil); err == nil {
			checkReference(db, "Q", compiled.Expr, rep.violate, func(string) {})
		}
	}
	plus, perr := fdb.QueryCertainWithOptions(text, nil, certsql.Options{Parallelism: par})
	if perr != nil && !budgetErr(perr) && !errors.Is(perr, certsql.ErrUntranslatable) {
		rep.violate("baseline", "clean Q⁺ run failed: %v", perr)
		return rep
	}

	// Fault-injected runs: each planned fault gets its own injector and
	// run, over both the standard and (when available) certain routes —
	// the certain route exercises translation-only operators such as
	// view materialization.
	for _, f := range faultinject.Plan(rng, chaosFaults) {
		rep.chaosFaultRun(fdb, text, par, f, "standard", base.SortedStrings(),
			func(o certsql.Options) (*certsql.Result, error) {
				return fdb.QueryWithOptions(text, nil, o)
			})
		if perr == nil {
			rep.chaosFaultRun(fdb, text, par, f, "certain", plus.SortedStrings(),
				func(o certsql.Options) (*certsql.Result, error) {
					return fdb.QueryCertainWithOptions(text, nil, o)
				})
		}
	}

	rep.chaosCachePoison(fdb, text, par)

	// Random-point cancellation: the cancel fault flips the context
	// mid-run. Success means the cancellation landed after the last
	// poll — then the result must be the complete baseline answer.
	cancelFault := faultinject.CancelPlan(rng)
	// vetcert:ignore ctxflow: the chaos harness owns the run's lifecycle —
	// this context exists to be cancelled by the injected fault.
	ctx, cancel := context.WithCancel(context.Background())
	inj := faultinject.New(cancelFault)
	inj.SetCancel(cancel)
	gov := guard.New(ctx, guard.Limits{})
	gov.SetFaultHook(inj)
	// Sharded like the fault runs: cancellation must interrupt a routed
	// keep loop without leaking workers or surfacing a partial result.
	res, cerr := fdb.QueryWithOptionsContext(ctx, text, nil, certsql.Options{Parallelism: par, Guard: gov, Shards: 2})
	cancel()
	rep.CancelFired = inj.Fired() > 0
	// vetcert:ignore sentinelswitch: budgetErr covers the whole budget
	// family via the ErrBudget umbrella, and no deadline is set here —
	// a deadline trip would be a violation, which default reports.
	switch {
	case cerr == nil:
		if got, want := fmt.Sprint(res.SortedStrings()), fmt.Sprint(base.SortedStrings()); got != want {
			rep.violate("cancel-partial-result", "%v: run reported success with a partial result:\ngot  %v\nwant %v",
				cancelFault, got, want)
		}
	case errors.Is(cerr, guard.ErrCanceled):
		if !rep.CancelFired {
			rep.violate("cancel-spurious", "%v: ErrCanceled without the cancel fault firing", cancelFault)
		}
	case budgetErr(cerr):
		// A budget trip can race the cancellation; either error is a
		// legitimate stop.
	default:
		rep.violate("cancel-error", "%v: got %v, want guard.ErrCanceled", cancelFault, cerr)
	}
	rep.chaosRetry(fdb, text, par, base.SortedStrings(), "cancellation")

	// Degradation soundness: size the cost budget to roughly half of
	// what the potential-answer route spends, so Q⋆ trips when it has
	// any budget-sensitive operator at all. Whatever happens, a result
	// flagged Degraded must equal the certain answers exactly.
	starGov := guard.Background(guard.Limits{})
	star, serr := fdb.QueryPossibleWithOptions(text, nil, certsql.Options{Parallelism: par, Guard: starGov})
	if serr != nil || perr != nil {
		return rep // no clean Q⋆ or Q⁺ baseline to compare against
	}
	budget := starGov.CostSpent()/2 + 1
	dres, derr := fdb.QueryPossibleWithOptions(text, nil, certsql.Options{
		Parallelism: par, Degrade: true, MaxCostUnits: budget,
	})
	switch {
	case derr != nil:
		// Both Q⋆ and the certain rerun exceeded the budget: a typed
		// budget error is the contract.
		if !errors.Is(derr, guard.ErrBudget) {
			rep.violate("degrade-error", "degraded run failed with a non-budget error: %v", derr)
		}
	case dres.Degraded:
		rep.Degraded = true
		if got, want := fmt.Sprint(dres.SortedStrings()), fmt.Sprint(plus.SortedStrings()); got != want {
			rep.violate("degrade-soundness", "degraded result differs from the certain answers:\ngot  %v\nwant %v", got, want)
		}
		found := false
		for _, w := range dres.Warnings {
			if w.Code == certsql.WarnDegradedToCertain {
				found = true
			}
		}
		if !found {
			rep.violate("degrade-warning", "degraded result carries no %q warning", certsql.WarnDegradedToCertain)
		}
	default:
		// The whole Q⋆ run fit in half its measured cost (nothing
		// budget-sensitive); it must then be the full answer.
		if got, want := fmt.Sprint(dres.SortedStrings()), fmt.Sprint(star.SortedStrings()); got != want {
			rep.violate("degrade-partial-result", "un-degraded run differs from clean Q⋆:\ngot  %v\nwant %v", got, want)
		}
	}
	return rep
}

// chaosFaultRun executes one route under one injected fault and checks
// the failure-semantics invariants, then retries cleanly.
func (rep *ChaosReport) chaosFaultRun(fdb *certsql.DB, text string, par int, f faultinject.Fault,
	route string, want []string, run func(certsql.Options) (*certsql.Result, error)) {
	rep.FaultRuns++
	inj := faultinject.New(f)
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(inj)
	// Fault runs execute sharded (Shards: 2), so every fault lands on
	// the routed visiting order; a sharded result is byte-identical to
	// the unsharded baseline by construction — so the same `want`
	// serves both. Clean retries below run unsharded, pinning that a
	// disturbed sharded run poisons nothing.
	res, err := run(certsql.Options{Parallelism: par, Guard: gov, Shards: 2})
	fired := inj.Fired() > 0
	if fired {
		rep.FaultsFired++
	}
	switch {
	case err == nil && fired:
		rep.violate("fault-swallowed", "%v (%s): fault fired %d time(s) but the run reported success",
			f, route, inj.Fired())
	case err == nil:
		if got := fmt.Sprint(res.SortedStrings()); got != fmt.Sprint(want) {
			rep.violate("fault-partial-result", "%v (%s): unfired fault changed the result:\ngot  %v\nwant %v",
				f, route, got, want)
		}
	case fired && f.Kind == faultinject.KindPanic:
		var ie *guard.InternalError
		if !errors.As(err, &ie) {
			rep.violate("panic-containment", "%v (%s): injected panic surfaced as %v, want *guard.InternalError",
				f, route, err)
		} else if ie.Op == "" || len(ie.Stack) == 0 {
			rep.violate("panic-containment", "%v (%s): InternalError without op/stack: %+v", f, route, ie)
		}
	case fired && f.Kind == faultinject.KindError:
		if !errors.Is(err, faultinject.ErrInjected) && !budgetErr(err) {
			rep.violate("fault-error", "%v (%s): injected error surfaced as %v, want ErrInjected", f, route, err)
		}
	default:
		// err != nil with the fault never firing: only a budget trip is
		// a legitimate spontaneous failure.
		if !budgetErr(err) {
			rep.violate("spurious-error", "%v (%s): unfired fault run failed: %v", f, route, err)
		}
	}
	// Clean retry on the same route and database.
	after := fmt.Sprintf("%v (%s)", f, route)
	rres, rerr := run(certsql.Options{Parallelism: par})
	if rerr != nil {
		rep.violate("retry", "clean retry after %s failed: %v", after, rerr)
		return
	}
	if got := fmt.Sprint(rres.SortedStrings()); got != fmt.Sprint(want) {
		rep.violate("retry", "clean retry after %s differs from baseline:\ngot  %v\nwant %v", after, got, want)
	}
}

// chaosCachePoison asserts the cache-poisoning invariant: a panic
// injected at the view-materialization site during a prepared execution
// surfaces as *guard.InternalError and leaves no partially built entry
// behind — the next clean Execute of the same statement serves the
// cached plan (PlanCacheHits == 1, the poisoned run compiled and
// published a complete plan before evaluation began) and renders the
// baseline bytes.
func (rep *ChaosReport) chaosCachePoison(fdb *certsql.DB, text string, par int) {
	prep, err := fdb.Prepare(text)
	if err != nil {
		return // parse invariants are the oracle's concern, not chaos's
	}
	base, err := prep.ExecuteWithOptions(nil, certsql.Options{Parallelism: par})
	if err != nil {
		return // budget-bound: no known-good answer to compare against
	}
	f := faultinject.Fault{Site: guard.SiteViewMaterialize, Kind: faultinject.KindPanic, HitNumber: 1}
	inj := faultinject.New(f)
	gov := guard.Background(guard.Limits{})
	gov.SetFaultHook(inj)
	_, perr := prep.ExecuteWithOptions(nil, certsql.Options{Parallelism: par, Guard: gov})
	if inj.Fired() == 0 {
		if perr != nil && !budgetErr(perr) {
			rep.violate("cache-poison", "%v: unfired fault run failed: %v", f, perr)
		}
		return // the plan publishes no view; nothing to poison
	}
	rep.FaultRuns++
	rep.FaultsFired++
	var ie *guard.InternalError
	if !errors.As(perr, &ie) {
		rep.violate("cache-poison", "%v: injected panic surfaced as %v, want *guard.InternalError", f, perr)
	}
	res, rerr := prep.ExecuteWithOptions(nil, certsql.Options{Parallelism: par})
	if rerr != nil {
		rep.violate("cache-poison", "clean Execute after %v failed: %v", f, rerr)
		return
	}
	if res.Stats.PlanCacheHits != 1 {
		rep.violate("cache-poison", "clean Execute after %v missed the plan cache, stats %+v", f, res.Stats)
	}
	if got, want := res.Table().String(), base.Table().String(); got != want {
		rep.violate("cache-poison", "clean Execute after %v differs from baseline:\ngot  %s\nwant %s", f, got, want)
	}
}

// chaosRetry asserts the same database still answers the standard
// query correctly after a disturbed run.
func (rep *ChaosReport) chaosRetry(fdb *certsql.DB, text string, par int, want []string, after string) {
	res, err := fdb.QueryWithOptions(text, nil, certsql.Options{Parallelism: par})
	if err != nil {
		rep.violate("retry", "clean retry after %s failed: %v", after, err)
		return
	}
	if got := fmt.Sprint(res.SortedStrings()); got != fmt.Sprint(want) {
		rep.violate("retry", "clean retry after %s differs from baseline:\ngot  %v\nwant %v", after, got, want)
	}
}
