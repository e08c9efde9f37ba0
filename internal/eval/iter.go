package eval

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
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
//     further next calls (rows are shared, never mutated). drain and
//     the semijoin probe's held batches rely on this: they keep the
//     batches and concatenate them once, so the executor allocates
//     each intermediate table once, at its exact size.
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
	buffered bool         // a materialized table, not a stored relation
	stored   *table.Table // the stored relation, when rows are all of it
}

// newScanIter streams the rows scan reads, charged at construction.
func (ev *Evaluator) newScanIter(e algebra.Base, groups [][]int) (*rowsIter, error) {
	t, rows, err := ev.scan(e, groups)
	if err != nil {
		return nil, err
	}
	it := &rowsIter{rows: rows, ar: t.Arity()}
	if len(rows) == t.Len() { // a null-list read returns a subset, in order
		it.stored = t
	}
	return it, nil
}

// newBufferedIter streams a materialized table.
func newBufferedIter(t *table.Table) *rowsIter {
	return &rowsIter{rows: t.Rows(), ar: t.Arity(), buffered: true}
}

// scan looks up a stored relation, reads every row or, given null-test
// groups, the candidates of the group with the fewest, and charges the
// read: the scan fault, one unit per row read and the trace note.
func (ev *Evaluator) scan(e algebra.Base, groups [][]int) (*table.Table, []table.Row, error) {
	t, err := ev.db.Table(e.Name)
	if err != nil {
		return nil, nil, err
	}
	if err := ev.gov.Fault(guard.SiteScan); err != nil {
		return nil, nil, err
	}
	rows, read := t.Rows(), []int(nil)
	fewest := len(rows)
	for _, g := range groups {
		if n := CountNulls(t, g); read == nil || n < fewest {
			fewest, read = n, g
		}
	}
	if read != nil {
		rows = nullCandidates(t, read, fewest)
	}
	if err := ev.charge("scan", int64(len(rows))); err != nil {
		return nil, nil, err
	}
	if read == nil {
		ev.note("scan %s -> %d rows", e.Name, t.Len())
	} else if ev.opts.Trace {
		ev.note("scan %s %s -> %d of %d rows", e.Name, NullsAccess(read), len(rows), t.Len())
	}
	return t, rows, nil
}

// nullMerge walks the union of t's ascending null-position lists of
// some columns in one pass, ascending, each position once.
type nullMerge [][]int

func mergeNulls(t *table.Table, cols []int) nullMerge {
	m := make(nullMerge, len(cols))
	for i, c := range cols {
		_, m[i] = t.NullRows(c)
	}
	return m
}

// next returns the next position, or ok=false when every list is done.
func (m nullMerge) next() (pos int, ok bool) {
	pos = -1
	for _, l := range m {
		if len(l) > 0 && (pos < 0 || l[0] < pos) {
			pos = l[0]
		}
	}
	for i, l := range m {
		if len(l) > 0 && l[0] == pos {
			m[i] = l[1:]
		}
	}
	return pos, pos >= 0
}

// CountNulls returns the number of rows of t with a null in one of cols.
func CountNulls(t *table.Table, cols []int) int {
	if len(cols) == 1 {
		_, pos := t.NullRows(cols[0])
		return len(pos)
	}
	n := 0
	for m := mergeNulls(t, cols); ; n++ {
		if _, ok := m.next(); !ok {
			return n
		}
	}
}

// nullCandidates returns the n = CountNulls(t, cols) rows of t with a
// null in one of cols, in ascending position: a column's list as
// stored, or the lists merged into a slice of exactly n rows.
func nullCandidates(t *table.Table, cols []int, n int) []table.Row {
	if len(cols) == 1 {
		rows, _ := t.NullRows(cols[0])
		return rows
	}
	rows := make([]table.Row, 0, n)
	m := mergeNulls(t, cols)
	for p, ok := m.next(); ok; p, ok = m.next() {
		rows = append(rows, t.Row(p))
	}
	return rows
}

// NullsAccess names a null-list read, for the trace and EXPLAIN:
// nulls(#1), or nulls(#1,#2) for a disjunction.
func NullsAccess(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = "#" + strconv.Itoa(c)
	}
	return "nulls(" + strings.Join(parts, ",") + ")"
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

// gather reads the columns an operator uses of row i of its input:
// over a stored relation read in full, from the relation's column
// copies (table.Column) into a scratch row, so the scan touches only
// those columns' memory; over any other input, from the row itself.
type gather struct {
	cols   []int
	copies [][]value.Value // copies[j] holds column cols[j]; nil reads rows
}

// newGather prepares reading cols, sorted, of t's rows, or of the input
// rows when t is nil or some col is not t's. It takes t's copies, so it
// runs on the coordinating goroutine.
func newGather(t *table.Table, cols []int) gather {
	if t == nil || len(cols) > 0 && (cols[0] < 0 || cols[len(cols)-1] >= t.Arity()) {
		return gather{}
	}
	g := gather{cols: cols, copies: make([][]value.Value, len(cols))}
	for j, c := range cols {
		g.copies[j] = t.Column(c)
	}
	return g
}

// row returns the input's row i, r, as the operator reads it: r, or
// dst, of r's arity, holding r's values in the gathered columns.
func (g gather) row(dst table.Row, i int, r table.Row) table.Row {
	if g.copies == nil {
		return r
	}
	for j, c := range g.cols {
		dst[c] = g.copies[j][i]
	}
	return dst
}

// filterIter applies a selection condition to each pulled batch, row
// by row on the coordinating goroutine, reading the condition's columns
// through a gather. Scalar subqueries in the condition are resolved at
// construction, after the child pipeline is built, which fixes the
// minting order of aggregate-null marks. The passing rows are collected
// in a scratch slice reused across batches and emitted as an exact-size
// copy.
type filterIter struct {
	ev      *Evaluator
	child   iter
	cond    algebra.Cond
	read    gather
	pos     int       // the input position of the next batch's first row
	row     table.Row // read's scratch row
	scratch []table.Row
}

func (ev *Evaluator) newFilterIter(child iter, cond algebra.Cond) (*filterIter, error) {
	cond, err := ev.resolveScalars(cond)
	if err != nil {
		child.close()
		return nil, err
	}
	var stored *table.Table
	if s, ok := child.(*rowsIter); ok {
		stored = s.stored
	}
	return &filterIter{ev: ev, child: child, cond: cond, read: newGather(stored, algebra.ColsUsed(cond)),
		row: make(table.Row, child.arity())}, nil
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
		it.scratch = it.scratch[:0]
		for i, r := range batch {
			v, err := it.ev.evalCond(it.cond, it.read.row(it.row, it.pos+i, r))
			if err != nil {
				return nil, err
			}
			if v.IsTrue() {
				it.scratch = append(it.scratch, r)
			}
		}
		it.pos += len(batch)
		if len(it.scratch) > 0 {
			return slices.Clone(it.scratch), nil
		}
	}
}

func (it *filterIter) arity() int { return it.child.arity() }
func (it *filterIter) close()     { it.child.close() }
func (it *filterIter) isIter()    {}

// projectIter rewrites each row onto the projection's column list; a
// batch's rows share one value slab.
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
	k := len(it.cols)
	out := make([]table.Row, len(batch))
	slab := make([]value.Value, len(batch)*k)
	for i, r := range batch {
		nr := slab[i*k : (i+1)*k : (i+1)*k]
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
// charges its own rows. Like filterIter it collects into a reused
// scratch slice and emits an exact-size copy.
type distinctIter struct {
	ev       *Evaluator
	child    iter
	chargeOp string
	seen     *grownIndex // charged per batch, released by close
	cols     []int
	scratch  []table.Row
}

func (ev *Evaluator) newDistinctIter(child iter, chargeOp string) *distinctIter {
	return &distinctIter{ev: ev, child: child, chargeOp: chargeOp,
		seen: ev.newGrownIndex("distinct", 0), cols: rangeInts(child.arity())}
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
		it.scratch = it.scratch[:0]
		for _, r := range batch {
			if _, fresh := it.seen.Insert(r, it.cols); fresh {
				it.scratch = append(it.scratch, r)
			}
		}
		if err := it.seen.charge(); err != nil {
			return nil, err
		}
		if len(it.scratch) > 0 {
			return slices.Clone(it.scratch), nil
		}
	}
}

func (it *distinctIter) arity() int { return it.child.arity() }
func (it *distinctIter) close()     { it.child.close(); it.seen.release() }
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
	var held [][]table.Row
	for n := 0; n < it.p.r.len(); {
		batch, err := it.child.next()
		if err != nil {
			return err
		}
		if batch == nil {
			it.done = true
			it.out, err = it.ev.semiBuildLeft(it.p, concatRows(held))
			return err
		}
		held = append(held, batch)
		n += len(batch)
	}
	err := it.ev.buildSemi(it.p)
	if err == nil {
		it.out, err = it.ev.probeSemi(it.p, concatRows(held))
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
