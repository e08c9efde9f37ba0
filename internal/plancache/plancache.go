// Package plancache is a fingerprint-keyed, size-bounded LRU cache of
// compiled query plans, the prepared-execution heart of the serving
// layer.
//
// The expensive part of a certain-answer query is everything *before*
// evaluation: parsing, compilation to the algebra, the static
// nullability analysis, and the Q⁺/Q⋆ translations. None of that work
// depends on the data — only on the query text, its parameters, the
// catalog (schema) version, and the translation options. The cache
// keys a plan by exactly those four components, so Prepare-once /
// Execute-many workloads skip straight to evaluation, and a catalog
// swap (a new published snapshot) implicitly invalidates every older
// plan: its entries key under the old version, never hit again, and
// age out of the LRU.
//
// The cache is safe for concurrent use; all operations are O(1).
package plancache

import (
	"container/list"
	"sync"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/plan"
)

// DefaultSize is the entry bound used when New is given max <= 0.
const DefaultSize = 256

// Mode is the evaluation mode a plan was compiled for, mirroring the
// facade's SELECT / SELECT CERTAIN / SELECT POSSIBLE forms.
type Mode uint8

// The evaluation modes.
const (
	ModeStandard Mode = iota
	ModeCertain
	ModePossible
)

// String names the mode for metrics and logs.
func (m Mode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeCertain:
		return "certain"
	case ModePossible:
		return "possible"
	default:
		return "mode(?)"
	}
}

// Key identifies one compiled plan. Two executions share a plan iff
// all four components agree.
type Key struct {
	// SQL is the canonical query text: the parse → render fixpoint,
	// which normalizes whitespace, comments, and keyword case.
	SQL string
	// CatalogVersion is the published snapshot version the plan was
	// compiled against. Version bumps make stale plans unreachable.
	CatalogVersion uint64
	// Params is the canonical fingerprint of the bound parameters
	// (they are folded into the compiled algebra, e.g. IN-lists).
	Params string
	// Options fingerprints the translation-affecting options (naive
	// mode and the ablation toggles). Executor-only options do not
	// change the plan and are excluded deliberately.
	Options string
}

// Plan is the cached unit of work: everything the facade computes
// between the query text and the first row.
type Plan struct {
	// Mode is the evaluation mode baked into the canonical text.
	Mode Mode
	// Columns names the output columns.
	Columns []string
	// Orig is the compiled original query.
	Orig algebra.Expr
	// Plus is the certain-answer translation Q⁺, present for
	// ModeCertain and (for the degradation ladder) ModePossible.
	Plus algebra.Expr
	// Star is the potential-answer translation Q⋆ (ModePossible).
	Star algebra.Expr
	// AnalyzerSafe is the static analyzer's verdict on Orig: safe
	// means plain evaluation returns exactly the certain answers on
	// NOT NULL-conforming data. The data-side conformance check runs
	// at execute time — it is O(1) and the data may change between
	// executions of one cached plan.
	AnalyzerSafe bool
	// OrigShape, PlusShape and StarShape are not set or read by the
	// engine; they are kept only because the benchmark module (bench/)
	// sets them (see eval.Shape).
	OrigShape *eval.Shape
	PlusShape *eval.Shape
	StarShape *eval.Shape
	// OrigOpt, PlusOpt and StarOpt are the cost-based planner's
	// optimized variants of the corresponding expressions, built by the
	// first execution that runs the expression with the planner on (see
	// Variant) and nil until then. An execution uses a variant only when
	// its premises still hold under the current statistics; otherwise it
	// falls back to the baseline expression above, so a cached variant
	// can go stale but never wrong.
	OrigOpt *Optimized
	PlusOpt *Optimized
	StarOpt *Optimized

	mu sync.Mutex // guards the *Opt fields, which Variant fills in
}

// Variant returns *slot — one of p's OrigOpt, PlusOpt and StarOpt —
// building it with build on first use. A failed build stores nothing,
// so a canceled or faulted execution leaves the plan as it found it.
// Concurrent first uses may each build; the first result stored wins.
func (p *Plan) Variant(slot **Optimized, build func() (*Optimized, error)) (*Optimized, error) {
	p.mu.Lock()
	o := *slot
	p.mu.Unlock()
	if o != nil {
		return o, nil
	}
	o, err := build()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if *slot == nil {
		*slot = o
	}
	return *slot, nil
}

// Optimized is one cost-based-planner output cached alongside its
// baseline expression: the rewritten plan (the baseline itself when no
// rule fired), the executor hints and the data-dependent premises the
// rewrites rely on. Shape and Explain are
// not set or read by the engine; they are kept only because the
// benchmark module (bench/) sets them.
type Optimized struct {
	Expr     algebra.Expr
	Hints    *eval.PlanHints
	Premises []plan.Premise
	Shape    *eval.Shape
	Explain  string
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Cap       int
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key  Key
	plan *Plan
}

// Cache is the LRU itself.
type Cache struct {
	mu        sync.Mutex
	max       int
	order     *list.List // front = most recently used
	byKey     map[Key]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// New returns a cache bounded to max entries (DefaultSize when
// max <= 0).
func New(max int) *Cache {
	if max <= 0 {
		max = DefaultSize
	}
	return &Cache{max: max, order: list.New(), byKey: make(map[Key]*list.Element)}
}

// Get returns the plan cached under k and marks it most recently used.
func (c *Cache) Get(k Key) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).plan, true
}

// Put stores a plan under k, evicting the least recently used entry
// when the cache is full. Storing under an existing key replaces the
// plan.
func (c *Cache) Put(k Key, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).plan = p
		c.order.MoveToFront(el)
		return
	}
	c.byKey[k] = c.order.PushFront(&entry{key: k, plan: p})
	if c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge drops every entry, keeping the counters.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.byKey = make(map[Key]*list.Element)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.order.Len(), Cap: c.max}
}
