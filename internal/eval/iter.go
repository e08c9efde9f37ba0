package eval

import (
	"fmt"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
)

// The executor's streaming operator family: composable pull-based batch
// iterators. A pipeline of iterators runs the operators that can stream
// — scans, single-leaf selections, projections, limits, distincts,
// unions, and (anti-)semijoin probes — without a table per operator.
// Everything else (hash builds, join blocks, sorts, aggregations, set
// operations, divisions, adom powers, shared views) stays buffered
// behind a buffered rowsIter, the explicit streaming/buffered boundary.
//
// The contract:
//
//   - next returns the next batch of at most batchSize rows, nil when
//     exhausted, or an error; after nil or an error the iterator must
//     not be pulled again.
//   - batches and their rows are read-only and remain valid after
//     further next calls (rows are shared, never mutated).
//   - close releases iterator-held resources; it is idempotent and must
//     be called exactly once by the owner of the pipeline root (parents
//     close their children).
//   - iterators run on the coordinating goroutine only; data
//     parallelism lives inside a batch (probeSemi partitions each
//     batch across workers), never across pulls.
//
// Governance is per-batch, not per-operator: the drain loop polls the
// governor, fires the SiteBatchPull fault hook, checks the row budget
// and charges estimated memory incrementally on every pull, so
// cancellation and budget trips are observed within one batch of where
// they occur, not after a full materialization.

// batchSize is the row count a pipeline pulls per batch — small enough
// that per-batch governance reacts promptly, large enough that the
// per-batch overhead vanishes against per-row work.
const batchSize = 1024

// iter is one streaming operator. Implementations form the iterator
// node family; iterName's type switch over it is exhaustive (vetcert's
// exhaustive rule).
type iter interface {
	next() ([]table.Row, error)
	arity() int
	close()
	isIter()
}

// iterName names an iterator node for traces and error reports.
func iterName(it iter) string {
	switch it := it.(type) {
	case *rowsIter:
		if it.buffered {
			return "buffered"
		}
		return "scan"
	case *filterIter:
		return "filter"
	case *projectIter:
		return "project"
	case *limitIter:
		return "limit"
	case *distinctIter:
		return "distinct"
	case *unionIter:
		return "union"
	case *semiProbeIter:
		return "semijoin-probe"
	case *emptyIter:
		return "empty"
	default:
		return fmt.Sprintf("%T", it)
	}
}

// rowsIter streams an in-memory row slice in batches: a stored
// relation (a scan), or a fully materialized table — a hash-build
// input, a shared view, a sort or aggregation result — streamed into
// the enclosing pipeline across the explicit streaming/buffered
// boundary. Neither charges memory: a relation is storage, not
// executor-materialized state, and a buffered table's charge is owned
// by the frame that materialized it (see drainExpr).
type rowsIter struct {
	rows     []table.Row
	ar, off  int
	buffered bool // a materialized table, not a stored relation
}

// newScanIter streams a stored relation; the scan's fault and full cost
// are charged here, at construction.
func (ev *Evaluator) newScanIter(e algebra.Base) (*rowsIter, error) {
	t, err := ev.scan(e)
	if err != nil {
		return nil, err
	}
	return &rowsIter{rows: t.Rows(), ar: t.Arity()}, nil
}

// newBufferedIter streams a materialized table.
func newBufferedIter(t *table.Table) *rowsIter {
	return &rowsIter{rows: t.Rows(), ar: t.Arity(), buffered: true}
}

// scan looks up a stored relation and charges reading it: the scan
// fault, the full scan cost and the trace note.
func (ev *Evaluator) scan(e algebra.Base) (*table.Table, error) {
	t, err := ev.db.Table(e.Name)
	if err != nil {
		return nil, err
	}
	if err := ev.gov.Fault(guard.SiteScan); err != nil {
		return nil, err
	}
	if err := ev.charge("scan", int64(t.Len())); err != nil {
		return nil, err
	}
	ev.note("scan %s -> %d rows", e.Name, t.Len())
	return t, nil
}

func (it *rowsIter) next() ([]table.Row, error) {
	if it.off >= len(it.rows) {
		return nil, nil
	}
	hi := min(it.off+batchSize, len(it.rows))
	b := it.rows[it.off:hi]
	it.off = hi
	return b, nil
}

func (it *rowsIter) arity() int { return it.ar }
func (it *rowsIter) close()     {}
func (it *rowsIter) isIter()    {}

// filterIter applies a selection condition to each pulled batch, row
// by row on the coordinating goroutine. Scalar subqueries in the
// condition are resolved at construction, after the child pipeline is
// built, which fixes the minting order of aggregate-null marks.
type filterIter struct {
	ev    *Evaluator
	child iter
	cond  algebra.Cond
}

func (ev *Evaluator) newFilterIter(child iter, cond algebra.Cond) (*filterIter, error) {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		child.close()
		return nil, err
	}
	return &filterIter{ev: ev, child: child, cond: cond}, nil
}

func (it *filterIter) next() ([]table.Row, error) {
	for {
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		if err := it.ev.charge("filter", int64(len(batch))); err != nil {
			return nil, err
		}
		var out []table.Row
		for _, r := range batch {
			v, err := it.ev.evalCond(it.cond, r)
			if err != nil {
				return nil, err
			}
			if v.IsTrue() {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *filterIter) arity() int { return it.child.arity() }
func (it *filterIter) close()     { it.child.close() }
func (it *filterIter) isIter()    {}

// projectIter rewrites each row onto the projection's column list.
type projectIter struct {
	ev    *Evaluator
	child iter
	cols  []int
}

func (it *projectIter) next() ([]table.Row, error) {
	batch, err := it.child.next()
	if batch == nil || err != nil {
		return nil, err
	}
	if err := it.ev.charge("project", int64(len(batch))); err != nil {
		return nil, err
	}
	out := make([]table.Row, len(batch))
	for i, r := range batch {
		nr := make(table.Row, len(it.cols))
		for j, c := range it.cols {
			nr[j] = r[c]
		}
		out[i] = nr
	}
	return out, nil
}

func (it *projectIter) arity() int { return len(it.cols) }
func (it *projectIter) close()     { it.child.close() }
func (it *projectIter) isIter()    {}

// limitIter passes the first n rows and stops pulling its child.
type limitIter struct {
	child iter
	left  int
	done  bool
}

func (it *limitIter) next() ([]table.Row, error) {
	if it.done || it.left == 0 {
		return nil, nil
	}
	batch, err := it.child.next()
	if batch == nil || err != nil {
		it.done = true
		return nil, err
	}
	if len(batch) > it.left {
		batch = batch[:it.left]
	}
	it.left -= len(batch)
	return batch, nil
}

func (it *limitIter) arity() int { return it.child.arity() }
func (it *limitIter) close()     { it.child.close() }
func (it *limitIter) isIter()    {}

// distinctIter deduplicates by mark-aware row identity, keeping first
// occurrences. chargeOp names the operator charged one cost unit per
// input row; it is empty when the dedup rides inside a union, which
// charges its own rows.
type distinctIter struct {
	ev       *Evaluator
	child    iter
	chargeOp string
	seen     *table.Index
	cols     []int
}

func (ev *Evaluator) newDistinctIter(child iter, chargeOp string) *distinctIter {
	return &distinctIter{ev: ev, child: child, chargeOp: chargeOp,
		seen: table.NewIndex(0), cols: rangeInts(child.arity())}
}

func (it *distinctIter) next() ([]table.Row, error) {
	for {
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		if it.chargeOp != "" {
			if err := it.ev.charge(it.chargeOp, int64(len(batch))); err != nil {
				return nil, err
			}
		}
		var out []table.Row
		for _, r := range batch {
			if _, fresh := it.seen.Insert(r, it.cols); fresh {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *distinctIter) arity() int { return it.child.arity() }
func (it *distinctIter) close()     { it.child.close() }
func (it *distinctIter) isIter()    {}

// unionIter concatenates its left child then its right; buildIter
// wraps it in a distinctIter for set-semantics union.
type unionIter struct {
	ev   *Evaluator
	l, r iter
	onR  bool
}

func (it *unionIter) next() ([]table.Row, error) {
	for {
		src := it.l
		if it.onR {
			src = it.r
		}
		batch, err := src.next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			if it.onR {
				return nil, nil
			}
			it.onR = true
			continue
		}
		if err := it.ev.charge("union", int64(len(batch))); err != nil {
			return nil, err
		}
		return batch, nil
	}
}

func (it *unionIter) arity() int { return it.l.arity() }
func (it *unionIter) close()     { it.l.close(); it.r.close() }
func (it *unionIter) isIter()    {}

// semiProbeIter runs a correlated (anti-)semijoin over a prepared plan
// (see prepSemi): the right side is evaluated at construction — the
// buffered boundary — and probe batches stream through, each partitioned
// across workers (probeSemi). A hash plan indexes whichever side is
// smaller, which is only known once the probe side has been seen: the
// first pull holds probe batches while their total stays below |R|
// (choose), so the operator buffers min(|L|, |R|) rows beside R itself
// and spends the same cost units either way (DESIGN.md §12).
type semiProbeIter struct {
	ev     *Evaluator
	p      *semiPlan
	child  iter
	chosen bool        // the hash index is built, or the plan needs none
	done   bool        // the probe side is exhausted
	out    []table.Row // decided rows not yet emitted
}

// choose holds probe batches until the smaller side is known and
// decides them: if the probe side ends first, R streams past an index
// of the held rows; otherwise R is indexed and the held rows probe it.
func (it *semiProbeIter) choose() error {
	it.chosen = true
	if err := it.ev.gov.Fault(guard.SiteHashBuild); err != nil { // one build, whichever side
		return err
	}
	var held []table.Row
	for len(held) < it.p.r.Len() {
		batch, err := it.child.next()
		if err != nil {
			return err
		}
		if batch == nil {
			it.done = true
			it.out, err = it.ev.semiBuildLeft(it.p, held)
			return err
		}
		held = append(held, batch...)
	}
	err := it.ev.buildSemi(it.p)
	if err == nil {
		it.out, err = it.ev.probeSemi(it.p, held)
	}
	return err
}

func (it *semiProbeIter) next() ([]table.Row, error) {
	if !it.chosen {
		if err := it.choose(); err != nil {
			return nil, err
		}
	}
	for len(it.out) == 0 {
		if it.done {
			return nil, nil
		}
		batch, err := it.child.next()
		if batch == nil || err != nil {
			return nil, err
		}
		if it.out, err = it.ev.probeSemi(it.p, batch); err != nil {
			return nil, err
		}
	}
	n := min(len(it.out), batchSize)
	batch := it.out[:n:n]
	it.out = it.out[n:]
	return batch, nil
}

func (it *semiProbeIter) arity() int { return it.p.nL }
func (it *semiProbeIter) isIter()    {}
func (it *semiProbeIter) close() {
	it.child.close()
	it.ev.gov.ReleaseMem(it.p.mem)
	it.p.mem = 0
}

// emptyIter yields nothing; short-circuited antijoins compile to it.
type emptyIter struct{ ar int }

func (it *emptyIter) next() ([]table.Row, error) { return nil, nil }
func (it *emptyIter) arity() int                 { return it.ar }
func (it *emptyIter) close()                     {}
func (it *emptyIter) isIter()                    {}
