package certain

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"certsql/internal/algebra"
	"certsql/internal/guard"
	"certsql/internal/refeval"
	"certsql/internal/table"
	"certsql/internal/value"
)

// ErrBruteForceTooLarge reports that the valuation or candidate space
// exceeds the configured budget. Computing certain answers is coNP-hard
// for queries with negation (Section 4 of the paper), so the brute-force
// ground truth is only usable on small instances.
var ErrBruteForceTooLarge = errors.New("certain: brute-force certain answers: search space too large")

// BruteForceOptions bound the brute-force computation.
type BruteForceOptions struct {
	// MaxValuations bounds the number of valuations enumerated
	// (default 300,000).
	MaxValuations int
	// MaxCandidates bounds the size of the candidate tuple space
	// adom(D)^k (default 300,000).
	MaxCandidates int
	// Parallelism fans the valuation-filtering loop out over this many
	// workers (0 = GOMAXPROCS, 1 = sequential). Each valuation's
	// membership check is independent and survival is a conjunction
	// over all valuations, so the result is identical at any setting.
	Parallelism int
	// Governor, when set, supplies cancellation for the enumeration:
	// it is polled once per valuation (each valuation is a complete
	// small-instance evaluation, so this is the natural grain), and
	// its fault hook fires guard.SiteValuation at the same points.
	// Nil means no cancellation.
	Governor *guard.Governor
}

func (o BruteForceOptions) workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Parallelism, 1)
}

func (o BruteForceOptions) maxValuations() int {
	if o.MaxValuations > 0 {
		return o.MaxValuations
	}
	return 300_000
}

func (o BruteForceOptions) maxCandidates() int {
	if o.MaxCandidates > 0 {
		return o.MaxCandidates
	}
	return 300_000
}

// CertainAnswers computes cert(Q, D) — certain answers with nulls — by
// explicit valuation enumeration: a tuple ā over adom(D)^k is certain
// iff v(ā) ∈ Q(v(D)) for every valuation v of the nulls of D.
//
// Enumerating all valuations into the infinite Const is impossible; by
// genericity of first-order queries it suffices to consider, for each
// null, the constants of its type occurring in D or in the query,
// augmented with fresh witnesses that realize every equality pattern
// (one fresh constant per null), every order position (values below,
// between and above the observed constants), and both outcomes of every
// LIKE pattern in the query (one matching and one non-matching fresh
// string). Two valuations that agree on all atom outcomes give the same
// membership verdicts, so this finite pool is exhaustive for the
// condition language of the paper (=, ≠, <, ≤, >, ≥, LIKE, const/null).
func CertainAnswers(e algebra.Expr, db *table.Database, opts BruteForceOptions) (*table.Table, error) {
	k := e.Arity()
	space, err := newValuationSpace(e, db, opts)
	if err != nil {
		return nil, err
	}

	// Candidate tuples are over adom(D)^k, but rather than enumerating
	// the full power we evaluate the query under the *first* valuation
	// and take the preimages of its answers: every certain candidate ā
	// must satisfy v₀(ā) ∈ Q(v₀(D)), so ā is, position by position, an
	// adom element that v₀ maps to the answer's value.
	v0 := space.at(0)
	res0, err := space.run(v0)
	if err != nil {
		return nil, err
	}

	// preimage maps a constant's row key to the adom elements that v₀
	// sends to it.
	preimage := map[string][]value.Value{}
	addPre := func(elem value.Value, img value.Value) {
		key := value.RowKey(table.Row{img})
		preimage[key] = append(preimage[key], elem)
	}
	for _, c := range db.Constants() {
		addPre(c, c)
	}
	for _, id := range space.nullIDs {
		addPre(value.Null(id), v0[id])
	}

	var cands []table.Row
	seen := map[string]struct{}{}
answers:
	for _, ans := range table.FromRows(k, res0).Distinct().Rows() {
		perPos := make([][]value.Value, k)
		for i, v := range ans {
			if perPos[i] = preimage[value.RowKey(table.Row{v})]; len(perPos[i]) == 0 {
				// The answer contains a value outside adom(D)'s image —
				// cannot happen for this query class, but be safe.
				continue answers
			}
		}
		n := 1
		for _, p := range perPos {
			if n > opts.maxCandidates()/len(p) {
				return nil, fmt.Errorf("%w: candidate preimage space too large", ErrBruteForceTooLarge)
			}
			n *= len(p)
		}
		row := make(table.Row, k)
		var gen func(int)
		gen = func(pos int) {
			if pos == k {
				key := value.RowKey(row)
				if _, dup := seen[key]; dup {
					return
				}
				seen[key] = struct{}{}
				r := make(table.Row, k)
				copy(r, row)
				cands = append(cands, r)
				return
			}
			for _, v := range perPos[pos] {
				row[pos] = v
				gen(pos + 1)
			}
		}
		gen(0)
		if len(cands) > opts.maxCandidates() {
			return nil, fmt.Errorf("%w: more than %d candidate tuples", ErrBruteForceTooLarge, opts.maxCandidates())
		}
	}

	// Filter the candidates against the remaining valuations, indices
	// [1, total), worker w taking every workers-th index from 1+w.
	// Survival is a conjunction over all valuations, so the surviving set
	// — kept in original candidate order — is independent of how the
	// index space is split. Per-candidate alive flags let every worker
	// prune and give a global early exit once no candidate survives.
	if len(cands) > 0 && space.total > 1 {
		workers := min(opts.workers(), space.total-1)
		alive := make([]atomic.Bool, len(cands))
		for i := range alive {
			alive[i].Store(true)
		}
		var aliveCount atomic.Int64
		aliveCount.Store(int64(len(cands)))
		var failed atomic.Bool
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var img table.Row
				for idx := 1 + w; idx < space.total; idx += workers {
					if aliveCount.Load() == 0 || failed.Load() {
						return
					}
					valuation := space.at(idx)
					res, err := space.run(valuation)
					if err != nil {
						errs[w] = err
						failed.Store(true)
						return
					}
					keys := table.FromRows(k, res).KeySet()
					for ci := range cands {
						if !alive[ci].Load() {
							continue
						}
						img = image(valuation, cands[ci], img)
						if _, ok := keys[value.RowKey(img)]; !ok && alive[ci].CompareAndSwap(true, false) {
							aliveCount.Add(-1)
						}
					}
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		kept := cands[:0]
		for ci := range alive {
			if alive[ci].Load() {
				kept = append(kept, cands[ci])
			}
		}
		cands = kept
	}
	return table.FromRows(k, cands), nil
}

// valuationSpace is the finite valuation space of one brute-force run:
// one pool per null of D (in db.Nulls() order) and the size of their
// product, with every v(D) evaluated on the definitional evaluator.
type valuationSpace struct {
	e       algebra.Expr
	db      *table.Database
	gov     *guard.Governor
	nullIDs []int64
	pools   [][]value.Value
	total   int
}

// newValuationSpace builds the pools of e over db and checks them
// against the valuation budget. A plan with a LIMIT is refused before
// any valuation runs: its answer is whichever rows come first, which
// the algebra does not fix, so it has no certain answers to compute.
func newValuationSpace(e algebra.Expr, db *table.Database, opts BruteForceOptions) (*valuationSpace, error) {
	limited := false
	algebra.Walk(e, func(sub algebra.Expr) {
		_, isLimit := sub.(algebra.Limit)
		limited = limited || isLimit
	})
	if limited {
		return nil, fmt.Errorf("certain: brute-force ground truth: %w", refeval.ErrLimit)
	}
	nullIDs := db.Nulls()
	pools, err := valuationPools(e, db, nullIDs, opts.Governor)
	if err != nil {
		return nil, err
	}
	total := 1
	for _, p := range pools {
		if len(p) == 0 {
			return nil, fmt.Errorf("certain: empty valuation pool")
		}
		if total > opts.maxValuations()/len(p) {
			return nil, fmt.Errorf("%w: %d nulls with pools of size ~%d", ErrBruteForceTooLarge, len(nullIDs), len(p))
		}
		total *= len(p)
	}
	return &valuationSpace{e: e, db: db, gov: opts.Governor, nullIDs: nullIDs, pools: pools, total: total}, nil
}

// at decodes valuation index idx in little-endian mixed radix over the
// pools (pool 0 is the fastest-moving digit); index 0 is v₀, the
// all-first-choices valuation.
func (s *valuationSpace) at(idx int) map[int64]value.Value {
	valuation := make(map[int64]value.Value, len(s.nullIDs))
	for i, id := range s.nullIDs {
		p := s.pools[i]
		valuation[id] = p[idx%len(p)]
		idx /= len(p)
	}
	return valuation
}

// run evaluates e on v(D) under SQL's three-valued logic. One poll (and
// fault hit) per valuation: each valuation is a complete small-instance
// evaluation, so this is the natural cancellation grain. Both calls are
// nil-safe and concurrency-safe, so parallel workers share the governor.
// An evaluation beyond the evaluator's work cap is a search space too
// large, like a valuation budget overrun.
func (s *valuationSpace) run(valuation map[int64]value.Value) ([]table.Row, error) {
	if err := s.gov.Fault(guard.SiteValuation); err != nil {
		return nil, err
	}
	if err := s.gov.Poll("brute-force/valuation"); err != nil {
		return nil, err
	}
	rows, err := refeval.Rows(s.db.Apply(valuation), value.SQL3VL, s.e)
	if errors.Is(err, refeval.ErrWork) {
		return nil, fmt.Errorf("%w: %w", ErrBruteForceTooLarge, err)
	}
	return rows, err
}

// image is v(row) written into dst: row with every null v binds
// replaced by its value. Marks v does not bind (those an evaluator
// minted for an empty aggregate) stay.
func image(v map[int64]value.Value, row, dst table.Row) table.Row {
	dst = dst[:0]
	for _, x := range row {
		if x.IsNull() {
			if c, bound := v[x.NullID()]; bound {
				x = c
			}
		}
		dst = append(dst, x)
	}
	return dst
}

// valuationPools builds, for each null of db (in db.Nulls() order), the
// finite pool of constants its valuations range over.
func valuationPools(e algebra.Expr, db *table.Database, nullIDs []int64, gov *guard.Governor) ([][]value.Value, error) {
	kinds, err := nullKinds(db, gov)
	if err != nil {
		return nil, err
	}

	// Observed constants per kind: database ∪ query literals.
	byKind := map[value.Kind][]value.Value{}
	add := func(v value.Value) {
		if v.IsNull() {
			return
		}
		byKind[v.Kind()] = append(byKind[v.Kind()], v)
	}
	for _, v := range db.Constants() {
		add(v)
	}
	var patterns []string
	for _, c := range algebra.Conds(e) {
		collectCondConsts(c, add, &patterns)
	}

	freshByKind := map[value.Kind][]value.Value{}
	for kind, vals := range byKind {
		freshByKind[kind] = freshWitnesses(kind, vals, len(nullIDs), patterns)
	}
	// A null might live in a column whose kind has no observed constants.
	for _, kind := range kinds {
		if _, ok := freshByKind[kind]; !ok && kind != value.KindNull {
			freshByKind[kind] = freshWitnesses(kind, nil, len(nullIDs), patterns)
		}
	}

	pools := make([][]value.Value, len(nullIDs))
	for i, id := range nullIDs {
		kind := kinds[id]
		pool := append([]value.Value{}, byKind[kind]...)
		pool = append(pool, freshByKind[kind]...)
		pool = dedupeValues(pool)
		sort.Slice(pool, func(a, b int) bool { return pool[a].String() < pool[b].String() })
		pools[i] = pool
	}
	return pools, nil
}

// nullKinds maps each null mark to the declared kind of the column it
// occurs in. A mark occurring in columns of different kinds is an error
// (it could not be valued consistently with both columns' types).
func nullKinds(db *table.Database, gov *guard.Governor) (map[int64]value.Kind, error) {
	kinds := map[int64]value.Kind{}
	for _, name := range db.Schema.Names() {
		rel, _ := db.Schema.Relation(name)
		t := db.MustTable(name)
		for _, r := range t.Rows() {
			// The scan touches every row of the instance; under a
			// cancelled or exhausted governor it must stop like any
			// other drain loop. Poll is nil-safe.
			if err := gov.Poll("brute-force/null-kinds"); err != nil {
				return nil, err
			}
			for i, v := range r {
				if !v.IsNull() {
					continue
				}
				want := rel.Attrs[i].Type
				if prev, ok := kinds[v.NullID()]; ok && prev != want {
					return nil, fmt.Errorf("certain: null ⊥%d occurs in columns of kinds %s and %s", v.NullID(), prev, want)
				}
				kinds[v.NullID()] = want
			}
		}
	}
	return kinds, nil
}

func collectCondConsts(c algebra.Cond, add func(value.Value), patterns *[]string) {
	switch c := c.(type) {
	case algebra.Cmp:
		addOperandConst(c.L, add)
		addOperandConst(c.R, add)
	case algebra.Like:
		addOperandConst(c.Operand, add)
		if lit, ok := c.Pattern.(algebra.Lit); ok && lit.Val.Kind() == value.KindString {
			*patterns = append(*patterns, lit.Val.AsString())
		}
	case algebra.NullTest:
		addOperandConst(c.Operand, add)
	case algebra.And:
		for _, sub := range c.Conds {
			collectCondConsts(sub, add, patterns)
		}
	case algebra.Or:
		for _, sub := range c.Conds {
			collectCondConsts(sub, add, patterns)
		}
	case algebra.Not:
		collectCondConsts(c.C, add, patterns)
	case algebra.TrueCond, algebra.FalseCond:
		// no constants
	}
}

func addOperandConst(o algebra.Operand, add func(value.Value)) {
	if lit, ok := o.(algebra.Lit); ok {
		add(lit.Val)
	}
}

// freshWitnesses produces constants outside the observed set that
// realize all atom-outcome patterns: nFresh pairwise-distinct values
// (equality patterns), order positions around and between the observed
// values, and LIKE pattern witnesses for strings.
func freshWitnesses(kind value.Kind, observed []value.Value, nFresh int, patterns []string) []value.Value {
	if nFresh < 1 {
		nFresh = 1
	}
	var out []value.Value
	switch kind {
	case value.KindNull:
		// never reached: nullKinds maps marks to declared column types,
		// and a column is never declared with the null kind
	case value.KindInt, value.KindDate:
		mk := value.Int
		if kind == value.KindDate {
			mk = value.Date
		}
		var ints []int64
		for _, v := range observed {
			if v.Kind() == value.KindInt {
				ints = append(ints, v.AsInt())
			} else if v.Kind() == value.KindDate {
				ints = append(ints, v.AsDate())
			}
		}
		sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
		if len(ints) == 0 {
			for i := 0; i < nFresh+1; i++ {
				out = append(out, mk(int64(1000+i)))
			}
			return out
		}
		out = append(out, mk(ints[0]-1))
		for i := 0; i+1 < len(ints); i++ {
			if ints[i+1]-ints[i] >= 2 {
				out = append(out, mk(ints[i]+(ints[i+1]-ints[i])/2))
			}
		}
		for i := 0; i < nFresh; i++ {
			out = append(out, mk(ints[len(ints)-1]+1+int64(i)))
		}
	case value.KindFloat:
		var fs []float64
		for _, v := range observed {
			fs = append(fs, v.AsFloat())
		}
		sort.Float64s(fs)
		if len(fs) == 0 {
			fs = []float64{0}
		}
		out = append(out, value.Float(fs[0]-1))
		for i := 0; i+1 < len(fs); i++ {
			if fs[i+1] > fs[i] {
				out = append(out, value.Float((fs[i]+fs[i+1])/2))
			}
		}
		for i := 0; i < nFresh; i++ {
			out = append(out, value.Float(fs[len(fs)-1]+1+float64(i)))
		}
	case value.KindString:
		for i := 0; i < nFresh; i++ {
			out = append(out, value.Str(fmt.Sprintf("\x7ffresh-%d", i)))
		}
		for pi, p := range patterns {
			out = append(out, value.Str(realizePattern(p)))
			out = append(out, value.Str(fmt.Sprintf("\x7fnomatch-%d", pi)))
		}
	case value.KindBool:
		out = append(out, value.Bool(true), value.Bool(false))
	}
	return out
}

// realizePattern builds a string matching a LIKE pattern: % becomes
// empty, _ becomes "a".
func realizePattern(p string) string {
	var b strings.Builder
	for i := 0; i < len(p); i++ {
		switch p[i] {
		case '%':
		case '_':
			b.WriteByte('a')
		default:
			b.WriteByte(p[i])
		}
	}
	return b.String()
}

func dedupeValues(vals []value.Value) []value.Value {
	seen := map[value.Value]struct{}{}
	out := vals[:0]
	for _, v := range vals {
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// RepresentsPotentialAnswers checks Definition 3 of the paper
// exhaustively over the finite valuation pool: does the tuple set A
// satisfy Q(v(D)) ⊆ v(A) for every valuation v? It returns a
// counterexample valuation and missing tuple when the answer is no.
// (Proposition 1 of the paper shows this problem is coNP-complete in
// general, so like CertainAnswers this is a small-instance tool.)
func RepresentsPotentialAnswers(e algebra.Expr, db *table.Database, a *table.Table, opts BruteForceOptions) (ok bool, missing table.Row, witness map[int64]value.Value, err error) {
	space, err := newValuationSpace(e, db, opts)
	if err != nil {
		return false, nil, nil, err
	}
	for idx := 0; idx < space.total; idx++ {
		valuation := space.at(idx)
		res, err := space.run(valuation)
		if err != nil {
			return false, nil, nil, err
		}
		img := make(map[string]struct{}, a.Len()) // the keys of v(A)
		for _, r := range a.Rows() {
			img[value.RowKey(image(valuation, r, nil))] = struct{}{}
		}
		for _, r := range res {
			if _, covered := img[value.RowKey(r)]; !covered {
				return false, r, valuation, nil
			}
		}
	}
	return true, nil, nil, nil
}
