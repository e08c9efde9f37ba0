package eval

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
)

// Data-parallel execution of the probe-side hot loops.
//
// The four loops that dominate the paper's "price of correctness"
// measurements — the hash-join probe, the hash and nested-loop
// semi/antijoin probes, and the unification-semijoin scan — share one
// shape: an outer scan over independent probe rows. This file provides
// the worker pool that partitions such a scan into one contiguous chunk
// per worker — the executor's only fan-out. Determinism is structural:
// a join partition preserves the input order of its rows and the
// per-partition outputs are concatenated in partition order; a keep
// loop (keepRows) writes one verdict into each row's own slot. Either
// way the result table (and the summed Stats counters) are
// byte-identical to a sequential run at any Parallelism.
//
// Workers never touch the evaluator's mutable state: they may only call
// evalCond (after resolveScalars has substituted scalar subqueries on the
// coordinating goroutine), accumulate counters in their own
// chunkStats, and append to their own output buffer. Trace notes are emitted
// by the coordinator only.

// minParallelRows is the smallest probe side worth fanning out; below
// one chunk of this size per extra worker, goroutine handoff costs more
// than the scan.
const minParallelRows = 256

// workers resolves the Parallelism option: 0 = GOMAXPROCS, otherwise at
// least one worker.
func (o Options) workers() int {
	switch {
	case o.Parallelism > 0:
		return o.Parallelism
	case o.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// chunkStats is one partition's share of the Stats counters touched
// inside probe loops; the shares are merged into ev.stats when the
// operator finishes.
type chunkStats struct {
	costUnits int64
}

// chunk is one worker's slice of a partitioned probe loop. Bodies scan
// rows [lo, hi), accumulate counters in st, and call stopped between
// rows so a failing partition (or a canceled context) halts in-flight
// work promptly.
type chunk struct {
	part, lo, hi int
	st           *chunkStats
	halt         *atomic.Bool
	gov          *guard.Governor
	op           string
	ticks        int
	err          error // cancellation or budget trip observed by stopped
	charged      int64 // st.costUnits already flushed to the governor
	row          table.Row
}

// scratch returns the chunk's reusable row buffer of the given arity,
// for candidate verification: one per worker, allocated on first use.
func (c *chunk) scratch(arity int) table.Row {
	if len(c.row) != arity {
		c.row = make(table.Row, arity)
	}
	return c.row
}

// stopped reports whether the chunk should cease: another partition
// failed, or — polled amortized every pollEvery calls, so the check
// stays O(1) per row — the governor's context was canceled or the
// chunk's accumulated work tripped the cost budget. A governor trip is
// recorded in c.err and halts the other partitions.
func (c *chunk) stopped() bool {
	if c.halt.Load() {
		return true
	}
	c.ticks++
	if c.ticks%pollEvery == 0 {
		err := c.gov.Poll(c.op)
		if err == nil {
			err = c.flushCost()
		}
		if err != nil {
			c.err = err
			c.halt.Store(true)
			return true
		}
	}
	return false
}

// flushCost charges the governor for body work accumulated since the
// last flush, so probe loops count against the cumulative cost budget
// as they run.
func (c *chunk) flushCost() error {
	if delta := c.st.costUnits - c.charged; delta > 0 {
		c.charged = c.st.costUnits
		return c.gov.ChargeCost(c.op, delta)
	}
	return nil
}

// fault invokes the governor's fault-injection hook at site; it is a
// nil check when no hook is installed.
func (c *chunk) fault(site guard.Site) error { return c.gov.Fault(site) }

// runChunks partitions [0, n) into one contiguous range per worker and
// runs body on every range, concurrently when more than one worker is
// available. The error of the lowest-numbered failing partition is
// returned; a partition that observed cancellation via stopped counts
// as failing with that error. Worker panics are recovered into
// *guard.InternalError values carrying the operator path and stack —
// a panicking worker must never kill the process or wedge wg.Wait.
// All shares — including those of halted partitions — are merged into
// ev.stats with atomic adds, so counters are consistent even when the
// operator fails mid-flight.
func (ev *Evaluator) runChunks(n int, op string, body func(c *chunk) error) error {
	workers := ev.opts.workers()
	if max := n / minParallelRows; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	var halt atomic.Bool
	if workers == 1 {
		if err := ev.gov.Fault(guard.SiteWorkerSpawn); err != nil {
			return err
		}
		var st chunkStats
		c := &chunk{part: 0, lo: 0, hi: n, st: &st, halt: &halt, gov: ev.gov, op: op}
		err := body(c)
		if err == nil {
			err = c.flushCost()
		}
		ev.stats.CostUnits += st.costUnits
		if err == nil {
			err = c.err
		}
		return err
	}

	errs := make([]error, workers)
	shares := make([]chunkStats, workers)
	var wg sync.WaitGroup
	lo := 0
	for part := 0; part < workers; part++ {
		size := n / workers
		if part < n%workers {
			size++
		}
		hi := lo + size
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					errs[c.part] = guard.NewInternalError(fmt.Sprintf("%s/worker[%d]", op, c.part), v)
					halt.Store(true)
				}
				// Atomic merge: workers may finish while others still
				// run, and Stats must never be torn even mid-operator.
				atomic.AddInt64(&ev.stats.CostUnits, c.st.costUnits)
			}()
			if err := c.fault(guard.SiteWorkerSpawn); err != nil {
				errs[c.part] = err
				halt.Store(true)
				return
			}
			err := body(c)
			if err == nil {
				err = c.flushCost()
			}
			if err == nil {
				err = c.err
			}
			if err != nil {
				errs[c.part] = err
				halt.Store(true)
			}
		}(&chunk{part: part, lo: lo, hi: hi, st: &shares[part], halt: &halt, gov: ev.gov, op: op})
		lo = hi
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatChunks assembles per-partition row buffers into one table in
// partition order, preserving the sequential output order exactly: a
// lone buffer is wrapped as it is, several are copied once into a
// slice of the exact size. It polls the governor first, so a
// cancellation that lands between the parallel phase and the merge
// still stops the query.
func concatChunks(gov *guard.Governor, arity int, chunks [][]table.Row) (*table.Table, error) {
	if err := gov.Poll("concat-chunks"); err != nil {
		return nil, err
	}
	return table.FromRows(arity, concatRows(chunks)), nil
}

// resolveScalars returns cond with every scalar-subquery operand
// replaced by the literal it evaluates to, computing each subquery
// once (cached) on the coordinating goroutine. Scalars are
// uncorrelated, so the substitution is an identity on semantics — the
// paper's black-box-constant treatment made syntactic. Row loops then
// evaluate conditions without touching the scalar cache, whose lookup
// key is a rendering of the whole subquery and used to be recomputed
// for every row; it also keeps parallel workers off the cache map.
// Conditions without scalars are returned unchanged.
func (ev *Evaluator) resolveScalars(c algebra.Cond) (algebra.Cond, error) {
	if !algebra.HasScalar(c) {
		return c, nil
	}
	var err error
	out := algebra.MapOperands(c, func(o algebra.Operand) algebra.Operand {
		s, ok := o.(algebra.Scalar)
		if !ok || err != nil {
			return o
		}
		v, verr := ev.scalarValue(s)
		if verr != nil {
			err = verr
			return o
		}
		return algebra.Lit{Val: v}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// keepRows returns the rows for which pred holds, in input order — the
// one fan-out under every probe-side keep loop, at every Parallelism.
// pred must obey the worker contract above and counts its own cost
// units on c. site, when non-empty, fires in each worker as it starts.
func (ev *Evaluator) keepRows(op string, rows []table.Row, site guard.Site, pred func(c *chunk, lr table.Row) (bool, error)) ([]table.Row, error) {
	keep, err := ev.keep(op, len(rows), site, func(c *chunk, i int) (bool, error) { return pred(c, rows[i]) })
	if err != nil {
		return nil, err
	}
	return keptRows(rows, keep), nil
}

// keep returns pred's verdict on each of the items 0..n-1. Worker w
// visits the w-th contiguous range of items; each verdict lands in its
// item's own slot, so the result and the summed cost units cannot
// depend on the worker count.
func (ev *Evaluator) keep(op string, n int, site guard.Site, pred func(c *chunk, i int) (bool, error)) ([]bool, error) {
	keep := make([]bool, n)
	err := ev.runChunks(n, op, func(c *chunk) error {
		if site != "" {
			if err := c.fault(site); err != nil {
				return err
			}
		}
		for i := c.lo; i < c.hi; i++ {
			if c.stopped() {
				return nil
			}
			ok, err := pred(c, i)
			if err != nil {
				return err
			}
			keep[i] = ok
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return keep, nil
}

// keptRows copies the rows whose verdict is set into a slice allocated
// once at its exact size, in input order: the keep loops run per
// 1 024-row batch of every stacked antijoin, where growing the output
// by append was 15 % of CERTAIN Q4's allocated bytes.
func keptRows(rows []table.Row, keep []bool) []table.Row {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	out := make([]table.Row, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, rows[i])
		}
	}
	return out
}

// filterTable returns the rows of t satisfying cond, scanning
// partitions of t in parallel: a semijoin's fused build-side filter
// when no hash key lets it be fused. A join block's residual filters run
// filterTuples, on positions.
func (ev *Evaluator) filterTable(t *table.Table, cond algebra.Cond) (*table.Table, error) {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		return nil, err
	}
	kept, err := ev.keepRows("filter", t.Rows(), "", func(c *chunk, lr table.Row) (bool, error) {
		c.st.costUnits++
		v, err := ev.evalCond(cond, lr)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	})
	if err != nil {
		return nil, err
	}
	return concatChunks(ev.gov, t.Arity(), [][]table.Row{kept})
}
