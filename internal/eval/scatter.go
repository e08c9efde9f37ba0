package eval

import (
	"fmt"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/shard"
	"certsql/internal/table"
)

// Scatter-gather execution across in-process engine shards (DESIGN.md
// §16). When Options.Shards > 1 the probe-side keep loops — filterTable,
// probeSemi, and the unification-semijoin probe, all through keepRows —
// replace the contiguous-chunk worker pool of parallel.go with hash
// routing:
// every probe row is assigned to the shard owning its content hash
// (shard.Partition), one worker goroutine runs per shard under a child
// governor whose charges roll up to the session governor, and the
// coordinator gathers per-shard completions and reassembles the output
// in global input order. The routing is deliberately the one a
// cross-process deployment would perform on the wire; the gather is
// therefore forced to reconstruct input order from arbitrary
// interleavings, which is exactly what makes `Shards: k` byte-identical
// to `Shards: 1` — difftest's shard-ablation invariant pins it.
//
// Failure semantics are all-or-nothing: each worker sends exactly one
// completion message on a capacity-1 channel (so it can never block or
// leak), and the gather loop selects on the governor's Done channel,
// drains every remaining channel once anything fails, and returns one
// typed error for the whole operator — never a truncated result set.
// The shard-scatter and shard-gather fault sites (chaos suite) fire on
// the coordinator around these two seams.

// shardCount resolves Options.Shards: values below 2 run unsharded.
func (o Options) shardCount() int {
	if o.Shards < 2 {
		return 1
	}
	return o.Shards
}

// shardMsg is the single completion message a shard worker sends when
// it finishes: its partition index, its share of the Stats counters,
// and its error, if any.
type shardMsg struct {
	part int
	st   chunkStats
	err  error
}

// scatterKeep runs pred over rows scattered across the configured
// shards and returns the rows for which it held, in input order. Each
// worker owns the disjoint index set shard.Partition routed to it and
// writes verdicts into its own slots of the keep slice, so the workers
// share no mutable state; pred must obey the parallel.go worker
// contract (evalCond only, after resolveScalars). site, when non-empty,
// fires in each worker as it starts — the sharded counterpart of the
// per-chunk probe fault.
func (ev *Evaluator) scatterKeep(op string, rows []table.Row, site guard.Site, pred func(c *chunk, lr table.Row) (bool, error)) ([]table.Row, error) {
	k := ev.opts.shardCount()
	parts := shard.Partition(rows, k)
	keep := make([]bool, len(rows))
	chans := make([]chan shardMsg, 0, k)
	var halt atomic.Bool
	ev.stats.ShardScatters++
	var launchErr error
	for s := 0; s < k; s++ {
		if err := ev.gov.Fault(guard.SiteShardScatter); err != nil {
			// Shards already launched must still be gathered below.
			launchErr = err
			halt.Store(true)
			break
		}
		c := &chunk{part: s, st: &chunkStats{}, halt: &halt, gov: ev.gov.Child(), op: op}
		ch := make(chan shardMsg, 1)
		chans = append(chans, ch)
		go shardWorker(c, ch, parts[s], rows, keep, site, pred)
	}
	err := ev.gatherShards(op, chans)
	if err == nil {
		err = launchErr
	}
	if err != nil {
		return nil, err
	}
	return keptRows(rows, keep), nil
}

// shardWorker runs one shard's index set and sends exactly one
// completion message on its capacity-1 channel — it never blocks, so
// the gather loop may return early without leaking the goroutine.
// Panics are contained here, like parallel.go's partition workers: a
// panicking shard must never kill the process or wedge the gather.
func shardWorker(c *chunk, ch chan<- shardMsg, idxs []int, rows []table.Row, keep []bool, site guard.Site, pred func(c *chunk, lr table.Row) (bool, error)) {
	m := shardMsg{part: c.part}
	func() {
		defer func() {
			if v := recover(); v != nil {
				m.err = guard.NewInternalError(fmt.Sprintf("%s/shard[%d]", c.op, c.part), v)
			}
		}()
		m.err = runShardSlice(c, idxs, rows, keep, site, pred)
	}()
	m.st = *c.st
	if m.err != nil {
		c.halt.Store(true)
	}
	ch <- m
}

// runShardSlice is the worker body: verdict per owned row, with the
// same amortized cancellation/budget polling as a chunked partition.
func runShardSlice(c *chunk, idxs []int, rows []table.Row, keep []bool, site guard.Site, pred func(c *chunk, lr table.Row) (bool, error)) error {
	if site != "" {
		if err := c.fault(site); err != nil {
			return err
		}
	}
	for _, i := range idxs {
		if c.stopped() {
			return c.err
		}
		ok, err := pred(c, rows[i])
		if err != nil {
			return err
		}
		keep[i] = ok
	}
	if err := c.flushCost(); err != nil {
		return err
	}
	return c.err
}

// gatherShards merges shard completions in shard order, firing the
// gather fault site per message and observing cancellation between
// messages. Any failure — a shard's error, an injected gather fault,
// or cancellation — drains every remaining channel before returning,
// so no worker is left with an unconsumed send and the caller sees one
// typed error instead of a truncated gather. Shard Stats shares are
// merged here, on the coordinator, so Stats needs no atomics.
func (ev *Evaluator) gatherShards(op string, chans []chan shardMsg) error {
	for i, ch := range chans {
		select {
		case <-ev.gov.Done():
			drainShardChans(chans[i:])
			if err := ev.gov.Poll(op); err != nil {
				return err
			}
			// Done closes only on cancellation, so Poll reported it
			// above; keep the gather all-or-nothing regardless.
			return &guard.LimitError{Sentinel: guard.ErrCanceled, Op: op}
		case m := <-ch:
			ev.stats.CostUnits += m.st.costUnits
			if err := ev.gov.Fault(guard.SiteShardGather); err != nil {
				drainShardChans(chans[i+1:])
				return err
			}
			if m.err != nil {
				drainShardChans(chans[i+1:])
				return m.err
			}
		}
	}
	return nil
}

// drainShardChans consumes the pending completion of every remaining
// shard — each worker sends exactly once on a buffered channel — so an
// early gather return never abandons an in-flight shard mid-send.
func drainShardChans(chans []chan shardMsg) {
	for _, ch := range chans {
		<-ch
	}
}

// scatterFilterBatch filters one streaming batch scatter-gather.
// filterIter already charged the batch's filter cost, so pred counts
// nothing.
func (ev *Evaluator) scatterFilterBatch(cond algebra.Cond, batch []table.Row) ([]table.Row, error) {
	return ev.scatterKeep("filter", batch, "", func(c *chunk, lr table.Row) (bool, error) {
		v, err := ev.evalCond(cond, lr)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	})
}
