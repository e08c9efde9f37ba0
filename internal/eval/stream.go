package eval

import (
	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
)

// The executor's driver. drainExpr serves view-cache hits, runs
// streamable subtrees as iterator pipelines via drain, and routes
// everything else through the buffered operator bodies in evalUncached
// behind a memory frame.

// streamable reports whether e runs as an iterator pipeline. A Select
// whose FROM clause joins two or more relations — its child is a
// product — is planned as a hash join block and buffers; with hash
// joins disabled it degenerates to filter-over-product and the filter
// streams.
func (ev *Evaluator) streamable(e algebra.Expr) bool {
	switch e := e.(type) { // vetcert:ignore famexhaustive: everything else buffers
	case algebra.Base, algebra.Project, algebra.Limit, algebra.Distinct,
		algebra.Union, algebra.SemiJoin:
		return true
	case algebra.Select:
		_, join := e.Child.(algebra.Product)
		return ev.opts.NoHashJoin || !join
	default:
		return false
	}
}

// sharedView reports that e should buffer through the view cache even
// though it could stream: either its result is already cached, or the
// shared-subtree analysis (Views.Shared) saw it appear more than once in
// the plan — the WITH-view effect the paper introduces for Q⁺4, which
// a pure pipeline would otherwise recompute per occurrence. Stored
// relations are exempt: repeating a scan is free, materializing a copy
// is not.
func (ev *Evaluator) sharedView(e algebra.Expr) bool {
	if ev.opts.NoSubplanCache {
		return false
	}
	if _, ok := e.(algebra.Base); ok {
		return false
	}
	key := ViewKey(e)
	if key == "" {
		return false
	}
	if _, ok := ev.cache[key]; ok {
		return true
	}
	return ev.shared[key]
}

// drainExpr evaluates e and returns its materialized result. top marks
// the root of an Eval call: a root Base drains through a scan pipeline
// (so even a bare scan's result is charged and budget-checked), while
// an interior Base is served as the stored relation itself — storage,
// not executor-materialized state, so it carries no memory charge.
func (ev *Evaluator) drainExpr(e algebra.Expr, top bool) (*table.Table, error) {
	if _, ok := e.(algebra.Base); ok && !top {
		return ev.evalUncached(e)
	}
	key := ""
	if !ev.opts.NoSubplanCache {
		key = ViewKey(e) // "" for subplans too large to profitably cache
		if t, ok := ev.cache[key]; key != "" && ok {
			ev.stats.CacheHits++
			ev.note("cached %s -> %d rows", key, t.Len())
			return t, nil
		}
	}
	ev.pushFrame()
	t, err := ev.drainScope(e)
	ev.popFrame(t)
	if err != nil {
		return nil, err
	}
	if key != "" {
		// Publication is the last step: a fault or panic here leaves no
		// partially built entry behind, and a drained pipeline that
		// failed mid-batch never reaches this point.
		if err := ev.gov.Fault(guard.SiteViewMaterialize); err != nil {
			return nil, err
		}
		ev.cache[key] = t
		ev.pin(t)
	}
	return t, nil
}

// drainScope produces e's table inside the frame drainExpr opened:
// streamable subtrees drain a pipeline (memory charged per batch),
// buffered ones run their operator body and charge their result at the
// operator boundary.
func (ev *Evaluator) drainScope(e algebra.Expr) (*table.Table, error) {
	if ev.streamable(e) {
		it, err := ev.buildIterNode(e)
		if err != nil {
			return nil, err
		}
		defer it.close()
		return ev.drain(opName(e), it)
	}
	t, err := ev.evalUncached(e)
	if err != nil {
		return nil, err
	}
	if err := ev.gov.ChargeMem(opName(e), t.EstimatedBytes()); err != nil {
		return nil, err
	}
	ev.trackMem(t, t.EstimatedBytes())
	return t, nil
}

// buildIter compiles a child position of a pipeline: subtrees that
// cannot stream — and streamable ones the plan shares (sharedView) —
// are drained to a table here and enter the pipeline behind the
// buffered rowsIter boundary; everything else composes as iterator nodes.
// Construction is where all buffered work happens, so by the time the
// first batch is pulled, the pipeline's eager inputs are complete.
func (ev *Evaluator) buildIter(e algebra.Expr) (iter, error) {
	if !ev.streamable(e) || ev.sharedView(e) {
		t, err := ev.drainExpr(e, false)
		if err != nil {
			return nil, err
		}
		return newBufferedIter(t), nil
	}
	return ev.buildIterNode(e)
}

// buildIterNode compiles one streamable operator into its iterator.
func (ev *Evaluator) buildIterNode(e algebra.Expr) (iter, error) {
	if err := ev.gov.Poll(opName(e)); err != nil {
		return nil, err
	}
	switch e := e.(type) { // vetcert:ignore famexhaustive: buffered operators take the default
	case algebra.Base:
		return ev.newScanIter(e, nil)

	case algebra.Select:
		// The one access-path choice: over a stored relation, a condition
		// requiring nulls (algebra.NullScans) reads only rows with one;
		// the filter checks it all, so rows and order are the full scan's.
		var child iter
		var err error
		if b, ok := e.Child.(algebra.Base); ok {
			if err := ev.gov.Poll(opName(e.Child)); err != nil {
				return nil, err
			}
			child, err = ev.newScanIter(b, algebra.NullScans(e.Cond))
		} else {
			child, err = ev.buildIter(e.Child)
		}
		if err != nil {
			return nil, err
		}
		return ev.newFilterIter(child, e.Cond)

	case algebra.Project:
		child, err := ev.buildIter(e.Child)
		if err != nil {
			return nil, err
		}
		return &projectIter{ev: ev, child: child, cols: e.Cols}, nil

	case algebra.Limit:
		if e.N < 0 {
			return nil, errNegativeLimit(e.N)
		}
		child, err := ev.buildIter(e.Child)
		if err != nil {
			return nil, err
		}
		return &limitIter{child: child, left: e.N}, nil

	case algebra.Distinct:
		child, err := ev.buildIter(e.Child)
		if err != nil {
			return nil, err
		}
		return ev.newDistinctIter(child, "distinct"), nil

	case algebra.Union:
		l, err := ev.buildIter(e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.buildIter(e.R)
		if err != nil {
			l.close()
			return nil, err
		}
		u := &unionIter{ev: ev, l: l, r: r}
		return ev.newDistinctIter(u, ""), nil

	case algebra.SemiJoin:
		return ev.buildSemiIter(e)

	default:
		// Unreachable from buildIter (streamable gates the types above),
		// kept as a buffered fallback.
		t, err := ev.drainExpr(e, false)
		if err != nil {
			return nil, err
		}
		return newBufferedIter(t), nil
	}
}

// buildSemiIter compiles an (anti-)semijoin: the uncorrelated
// short-circuit answers the subquery once and compiles to either an
// empty pipeline or the bare left side; the correlated form evaluates
// the right side eagerly (prepSemi) and streams probe batches through
// it. The evaluation order is left pipeline construction, then the
// right side.
func (ev *Evaluator) buildSemiIter(e algebra.SemiJoin) (iter, error) {
	nL := e.L.Arity()
	cond := semiCond(e)
	correlated := algebra.UsesColBelow(cond, nL)
	if !correlated && !ev.opts.NoShortCircuit {
		exists, err := ev.semiExists(nL, e.R, cond)
		if err != nil {
			return nil, err
		}
		if exists == e.Anti {
			return &emptyIter{ar: nL}, nil // empty result, L never evaluated
		}
		return ev.buildIter(e.L)
	}
	child, err := ev.buildIter(e.L)
	if err != nil {
		return nil, err
	}
	p, err := ev.prepSemi(e, cond)
	if err != nil {
		child.close()
		return nil, err
	}
	return &semiProbeIter{ev: ev, p: p, child: child, chosen: p.lCols == nil}, nil
}

// drain pulls a pipeline to exhaustion into a fresh table. This loop
// is where per-operator governance became per-batch: every pull polls
// for cancellation, fires the batch-pull fault site, checks the row
// budget against the accumulated output, and charges the batch's
// estimated bytes (table.EstimatedBytes is linear in rows, so the
// increments sum exactly to the full-table charge). The batches stay
// valid after later pulls (the iter contract), so they are kept and
// concatenated once at the end, into a table allocated at its exact
// size. On failure the partial output's charge is returned to the
// governor.
func (ev *Evaluator) drain(op string, it iter) (t *table.Table, err error) {
	var batches [][]table.Row
	n, rowBytes := 0, table.EstimatedRowBytes(it.arity())
	var charged int64
	defer func() {
		if err != nil {
			ev.gov.ReleaseMem(charged)
		}
	}()
	for {
		if err := ev.gov.Poll(op); err != nil {
			return nil, err
		}
		if err := ev.gov.Fault(guard.SiteBatchPull); err != nil {
			return nil, err
		}
		batch, err := it.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		batches = append(batches, batch)
		n += len(batch)
		if err := ev.gov.CheckRows(op, n); err != nil {
			return nil, err
		}
		delta := int64(len(batch)) * rowBytes
		charged += delta // ChargeMem adds before checking; keep release exact
		if err := ev.gov.ChargeMem(op, delta); err != nil {
			return nil, err
		}
	}
	out := table.FromRows(it.arity(), concatRows(batches))
	ev.trackMem(out, charged)
	ev.note("%s ~> %d rows", iterName(it), out.Len())
	return out, nil
}

// concatRows returns the rows of batches in order, in one slice
// allocated at its exact size. A lone batch is returned as it is: a
// scan's batch then shares the stored relation's array, which
// FromRows' clipped capacity keeps an Append on the result from
// writing into.
func concatRows(batches [][]table.Row) []table.Row {
	if len(batches) == 1 {
		return batches[0]
	}
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	rows := make([]table.Row, 0, n)
	for _, b := range batches {
		rows = append(rows, b...)
	}
	return rows
}

// pushFrame opens a memory scope: tables charged while it is open are
// released when the matching popFrame closes it.
func (ev *Evaluator) pushFrame() {
	ev.frames = append(ev.frames, nil)
}

// popFrame closes the top scope, releasing the charge of every table
// it tracked except keep, whose charge migrates to the enclosing
// scope (or stays for the evaluator's lifetime at the root). Pinned
// tables — view-cache entries — have no ledger entry and are skipped.
func (ev *Evaluator) popFrame(keep *table.Table) {
	top := ev.frames[len(ev.frames)-1]
	ev.frames = ev.frames[:len(ev.frames)-1]
	for _, t := range top {
		if t == keep {
			if len(ev.frames) > 0 {
				ev.frames[len(ev.frames)-1] = append(ev.frames[len(ev.frames)-1], t)
			}
			continue
		}
		if n, ok := ev.ledger[t]; ok {
			ev.gov.ReleaseMem(n)
			delete(ev.ledger, t)
		}
	}
}

// trackMem records that t carries an n-byte live charge, owned by the
// current frame.
func (ev *Evaluator) trackMem(t *table.Table, n int64) {
	ev.ledger[t] += n
	if len(ev.frames) > 0 {
		ev.frames[len(ev.frames)-1] = append(ev.frames[len(ev.frames)-1], t)
	}
}

// pin makes t's memory charge permanent — the view cache keeps the
// table alive beyond the operator (and, under a shared governor, the
// query) that built it, so its charge must not be released when the
// building frame closes. A table is charged exactly once: hits on the
// cached entry are free.
func (ev *Evaluator) pin(t *table.Table) {
	delete(ev.ledger, t)
}
