// Package guard is the resource-governance and failure-semantics layer
// of the certain-answer pipeline.
//
// The paper's translations have intrinsically hostile corners: the
// legacy rewriting materializes active-domain powers that exhaust
// memory below 10³ tuples (Section 5), and even the practical Q⁺/Q⋆
// path runs quadratic unification semijoins (Section 7). A Governor
// makes every such corner stoppable and accountable. It unifies four
// concerns that previously lived in ad-hoc knobs or not at all:
//
//   - cancellation and deadlines, via a context.Context polled at
//     operator boundaries and (amortized) inside partition workers;
//   - a row budget on materialized intermediate results;
//   - a cost budget on elementary row operations, so quadratic loops
//     degrade with an error instead of hanging;
//   - estimated-bytes memory accounting, charged at operator
//     boundaries when results materialize.
//
// Every trip is reported as a *LimitError wrapping one of the typed
// sentinels below, carrying the operator path that tripped it, so
// callers dispatch with errors.Is/errors.As. Recovered panics become
// *InternalError values carrying the operator path and stack.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// Default budgets, shared by every entry point that does not set its
// own. These are the values previously hard-coded in internal/eval.
const (
	DefaultMaxRows      = 4_000_000
	DefaultMaxCostUnits = int64(1) << 30
)

// Sentinel errors. ErrBudget is the grouping sentinel: every budget
// trip (rows, memory, cost) matches it via errors.Is, while the
// specific sentinels distinguish which budget tripped. Cancellation
// and deadline expiry are deliberately NOT budget errors — a degraded
// rerun makes no sense once the caller has gone away.
var (
	// ErrBudget matches any resource-budget trip (rows, memory, cost).
	ErrBudget = errors.New("guard: resource budget exceeded")

	// ErrCanceled reports that the evaluation's context was canceled.
	ErrCanceled = errors.New("guard: evaluation canceled")

	// ErrDeadline reports that the evaluation's deadline passed.
	ErrDeadline = errors.New("guard: evaluation deadline exceeded")

	// ErrRowBudget reports an intermediate result over the row budget.
	ErrRowBudget = budgetSentinel("guard: row budget exceeded")

	// ErrMemBudget reports estimated memory over the byte budget.
	ErrMemBudget = budgetSentinel("guard: memory budget exceeded")

	// ErrCostBudget reports elementary row operations over the cost
	// budget.
	ErrCostBudget = budgetSentinel("guard: cost budget exceeded")
)

// budgetErr is a sentinel that also matches the grouping ErrBudget.
type budgetErr struct{ msg string }

func budgetSentinel(msg string) error     { return &budgetErr{msg} }
func (e *budgetErr) Error() string        { return e.msg }
func (e *budgetErr) Is(target error) bool { return target == ErrBudget }

// LimitError is the concrete error returned for every governed stop:
// it wraps the sentinel that identifies the cause and records the
// operator path that observed it.
type LimitError struct {
	Sentinel error  // one of the guard sentinels above
	Op       string // operator path that tripped, e.g. "semijoin/probe"
	Detail   string // human-readable specifics, may be empty
}

func (e *LimitError) Error() string {
	switch {
	case e.Detail != "" && e.Op != "":
		return fmt.Sprintf("%v: %s (at %s)", e.Sentinel, e.Detail, e.Op)
	case e.Detail != "":
		return fmt.Sprintf("%v: %s", e.Sentinel, e.Detail)
	case e.Op != "":
		return fmt.Sprintf("%v (at %s)", e.Sentinel, e.Op)
	default:
		return e.Sentinel.Error()
	}
}

func (e *LimitError) Unwrap() error { return e.Sentinel }

// InternalError is a panic recovered at a containment boundary (a
// partition worker or the public API). It preserves the panic value,
// the operator path, and the goroutine stack at recovery time, so the
// public API reports bugs as errors instead of crashing the caller.
type InternalError struct {
	Op    string // where the panic was recovered
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() at recovery
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("guard: internal error in %s: %v", e.Op, e.Value)
}

// Unwrap returns the panic value when it is an error, so that a typed
// refusal raised as a panic (table.ErrIndexSize) still matches
// errors.Is.
func (e *InternalError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// NewInternalError captures the current stack around a recovered panic
// value. Call it from inside the deferred recover handler.
func NewInternalError(op string, v any) *InternalError {
	return &InternalError{Op: op, Value: v, Stack: debug.Stack()}
}

// Site identifies a fault-injection hook point in the engine. Sites
// are defined here (rather than in faultinject) so the executor can
// reference them without importing the test-only injector.
type Site string

const (
	// SiteScan fires when a base-relation scan is served.
	SiteScan Site = "scan"
	// SiteHashBuild fires when a hash-join or hash-semijoin build side
	// is indexed.
	SiteHashBuild Site = "hash-build"
	// SiteSemijoinProbe fires when a semijoin probe partition starts.
	SiteSemijoinProbe Site = "semijoin-probe"
	// SiteWorkerSpawn fires in each partition worker as it starts.
	SiteWorkerSpawn Site = "worker-spawn"
	// SiteViewMaterialize fires when a subplan result is stored in the
	// shared-view cache.
	SiteViewMaterialize Site = "view-materialize"
	// SiteBatchPull fires once per batch pulled through the streaming
	// executor's drain loop — the per-batch governance point of the
	// pull-based iterator path.
	SiteBatchPull Site = "batch-pull"
	// SiteValuation fires once per valuation enumerated by the
	// brute-force certain-answer oracle.
	SiteValuation Site = "valuation"
	// SitePlanRewrite fires when the cost-based planner starts
	// rewriting an expression: once per expression a plan's mode
	// executes, when the plan is compiled.
	SitePlanRewrite Site = "plan-rewrite"

	// The persist-* sites instrument every durability seam of the
	// on-disk snapshot store (internal/persist). A panic injected at
	// one of them simulates a process crash at that exact point, which
	// is how the crash-recovery chaos suite proves the write-ahead
	// protocol: whatever prefix of the seam sequence completed, reopen
	// must land on a valid published version.

	// SitePersistWALAppend fires twice per WAL record: once after part
	// of the record is written (a crash here leaves a torn tail
	// record), and once after the full record is on the file but
	// before it is synced.
	SitePersistWALAppend Site = "persist-wal-append"
	// SitePersistFsync fires immediately before each File.Sync on the
	// WAL or a segment file.
	SitePersistFsync Site = "persist-fsync"
	// SitePersistSegmentWrite fires once per block written to a
	// checkpoint segment file.
	SitePersistSegmentWrite Site = "persist-segment-write"
	// SitePersistManifestRename fires immediately before the atomic
	// manifest rename — the single instant at which a checkpoint
	// becomes the published on-disk state.
	SitePersistManifestRename Site = "persist-manifest-rename"
	// SitePersistCheckpoint fires when a checkpoint begins, before any
	// segment is written.
	SitePersistCheckpoint Site = "persist-checkpoint"
)

// Sites lists every *engine* fault-injection site, for seeded fault
// plans over query evaluation. The durability seams are listed
// separately in PersistSites: they never fire during evaluation, so
// mixing them into query chaos plans would only produce no-op faults.
var Sites = []Site{SiteScan, SiteHashBuild, SiteSemijoinProbe, SiteWorkerSpawn, SiteViewMaterialize, SiteBatchPull, SitePlanRewrite}

// PersistSites lists every durability-seam site of the persistent
// snapshot store, for crash-recovery fault plans.
var PersistSites = []Site{SitePersistWALAppend, SitePersistFsync, SitePersistSegmentWrite, SitePersistManifestRename, SitePersistCheckpoint}

// FaultHook receives a callback at every instrumented site. A hook
// returns a non-nil error to inject a failure at that site; it may
// also panic (to exercise panic containment) or trigger cancellation
// out of band. Implementations must be safe for concurrent use —
// partition workers hit sites concurrently. Production code never
// installs a hook; see internal/guard/faultinject.
type FaultHook interface {
	Hit(site Site) error
}

// Limits bounds one evaluation. Zero values mean defaults for rows and
// cost, and "unlimited" for memory (estimation is coarse, so the
// memory budget is opt-in).
type Limits struct {
	// MaxRows bounds any materialized intermediate result, in rows.
	// Zero means DefaultMaxRows; negative means unlimited.
	MaxRows int
	// MaxCostUnits bounds cumulative elementary row operations. Zero
	// means DefaultMaxCostUnits; negative means unlimited.
	MaxCostUnits int64
	// MaxMemBytes bounds cumulative estimated bytes of materialized
	// results. Zero or negative means unlimited.
	MaxMemBytes int64
}

func (l Limits) maxRows() int {
	switch {
	case l.MaxRows > 0:
		return l.MaxRows
	case l.MaxRows < 0:
		return int(^uint(0) >> 1)
	default:
		return DefaultMaxRows
	}
}

func (l Limits) maxCostUnits() int64 {
	switch {
	case l.MaxCostUnits > 0:
		return l.MaxCostUnits
	case l.MaxCostUnits < 0:
		return int64(^uint64(0) >> 1)
	default:
		return DefaultMaxCostUnits
	}
}

// Governor enforces Limits and cancellation for one evaluation. It is
// safe for concurrent use by partition workers: budgets are charged
// with atomics and Poll only reads the context's done channel.
//
// A Governor is single-evaluation state: budgets are cumulative and
// never reset, so reusing one across queries shares the budgets across
// them (which the experiment runners exploit deliberately — one budget
// per measured run).
type Governor struct {
	ctx    context.Context
	done   <-chan struct{}
	limits Limits
	cost   atomic.Int64
	mem    atomic.Int64
	memHW  atomic.Int64
	faults FaultHook
}

// New returns a Governor enforcing limits under ctx. A nil ctx is
// treated as context.Background().
func New(ctx context.Context, limits Limits) *Governor {
	g := &Governor{ctx: ctx, limits: limits}
	if ctx != nil {
		g.done = ctx.Done()
	}
	return g
}

// Background returns a Governor with no cancellation, only budgets.
// vetcert:ignore ctxflow: this constructor is the documented way to ask
// for an uncancellable governor; callers who have a context use New.
func Background(limits Limits) *Governor { return New(context.Background(), limits) }

// SetFaultHook installs a fault-injection hook. Test-only; must be
// called before the Governor is shared with workers.
func (g *Governor) SetFaultHook(h FaultHook) { g.faults = h }

// Fresh returns a Governor with the same context, limits, and fault
// hook but zeroed budget accounting. It exists for deliberate reruns
// after a budget trip — the degrade-to-certain ladder re-evaluates
// under the same limits without inheriting the spent budget — while
// still honoring the caller's cancellation.
func (g *Governor) Fresh() *Governor {
	if g == nil {
		return nil
	}
	ng := New(g.ctx, g.limits)
	ng.faults = g.faults
	return ng
}

// Limits returns the configured limits (zero values not defaulted).
func (g *Governor) Limits() Limits { return g.limits }

// MaxRows returns the effective row budget.
func (g *Governor) MaxRows() int { return g.limits.maxRows() }

// Poll returns nil while the evaluation may continue, and a
// *LimitError wrapping ErrCanceled or ErrDeadline once the context is
// done. It is O(1) and allocation-free on the happy path, so workers
// can call it amortized inside hot loops.
func (g *Governor) Poll(op string) error {
	if g == nil || g.done == nil {
		return nil
	}
	select {
	case <-g.done:
		return g.ctxErr(op)
	default:
		return nil
	}
}

func (g *Governor) ctxErr(op string) error {
	sentinel := ErrCanceled
	if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
		sentinel = ErrDeadline
	}
	return &LimitError{Sentinel: sentinel, Op: op}
}

// CheckRows returns a row-budget LimitError when a materialized result
// of n rows would exceed the budget.
func (g *Governor) CheckRows(op string, n int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.maxRows(); n > max {
		return &LimitError{Sentinel: ErrRowBudget, Op: op,
			Detail: fmt.Sprintf("%d rows over budget of %d", n, max)}
	}
	return nil
}

// ChargeCost adds n elementary row operations to the cumulative cost
// and trips ErrCostBudget when the total exceeds the budget.
func (g *Governor) ChargeCost(op string, n int64) error {
	if g == nil {
		return nil
	}
	total := g.cost.Add(n)
	if max := g.limits.maxCostUnits(); total > max {
		return &LimitError{Sentinel: ErrCostBudget, Op: op,
			Detail: fmt.Sprintf("%d units over budget of %d", total, max)}
	}
	return nil
}

// CostSpent returns the cumulative cost charged so far.
func (g *Governor) CostSpent() int64 { return g.cost.Load() }

// ChargeMem adds an estimated n bytes of materialized state and trips
// ErrMemBudget when the live estimate exceeds the budget. With no
// memory budget configured it only accumulates. The charge is live, not
// cumulative: ReleaseMem returns bytes whose backing state the executor
// has dropped, and the all-time peak is kept in MemHighWater.
func (g *Governor) ChargeMem(op string, n int64) error {
	if g == nil {
		return nil
	}
	total := g.mem.Add(n)
	for {
		hw := g.memHW.Load()
		if total <= hw || g.memHW.CompareAndSwap(hw, total) {
			break
		}
	}
	if max := g.limits.MaxMemBytes; max > 0 && total > max {
		return &LimitError{Sentinel: ErrMemBudget, Op: op,
			Detail: fmt.Sprintf("estimated %d bytes over budget of %d", total, max)}
	}
	return nil
}

// ReleaseMem returns n estimated bytes previously charged with
// ChargeMem, once the state they accounted for is no longer live (a
// consumed intermediate, a closed iterator's buffer). The high-water
// mark is unaffected.
func (g *Governor) ReleaseMem(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.mem.Add(-n)
}

// MemCharged returns the estimated bytes currently charged (live).
func (g *Governor) MemCharged() int64 { return g.mem.Load() }

// MemHighWater returns the peak of MemCharged over the Governor's
// lifetime — the evaluation's peak estimated intermediate memory.
func (g *Governor) MemHighWater() int64 { return g.memHW.Load() }

// Fault invokes the installed fault hook at site, returning whatever
// the hook injects. With no hook installed (production) it is a nil
// check and nothing more.
func (g *Governor) Fault(site Site) error {
	if g == nil || g.faults == nil {
		return nil
	}
	return g.faults.Hit(site)
}
