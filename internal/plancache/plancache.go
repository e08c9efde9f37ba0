// Package plancache is a fingerprint-keyed, size-bounded LRU cache of
// compiled query plans, the prepared-execution heart of the serving
// layer.
//
// The expensive part of a certain-answer query is everything *before*
// evaluation: parsing, compilation to the algebra, the Q⁺/Q⋆
// translations and the planner's rewrites. None of that work depends
// on the data — only on the query text, its parameters, the plan
// options and the schema. The cache keys a plan by exactly those, so
// Prepare-once / Execute-many workloads skip straight to evaluation,
// and a plan stays valid across every snapshot of its catalog: a
// publish changes the data, not the schema, and invalidates nothing.
//
// The cache is safe for concurrent use; all operations are O(1).
package plancache

import (
	"container/list"
	"sync"

	"certsql/internal/algebra"
	"certsql/internal/eval"
	"certsql/internal/plan"
	"certsql/internal/schema"
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
// all of its components agree.
type Key struct {
	// SQL is the canonical query text: the parse → render fixpoint,
	// which normalizes whitespace, comments, and keyword case.
	SQL string
	// Schema is the schema the plan was compiled against, by identity:
	// every snapshot of a catalog shares its schema, so a plan serves
	// them all, and a database over another schema misses.
	Schema *schema.Schema
	// CatalogVersion is not set or read by the engine. It is kept only
	// because the benchmark module (bench/replica.go:151) sets it;
	// ROADMAP item 1 deletes it.
	CatalogVersion uint64
	// Params is the canonical fingerprint of the bound parameters
	// (they are folded into the compiled algebra, e.g. IN-lists).
	Params string
	// Options fingerprints the options that change the plan: the route,
	// naive mode, the translation's ablation toggles and the view cache,
	// which the lowering reads. Other executor options do not change the
	// plan and are excluded deliberately.
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
	// AnalyzerSafe is not set or read by the engine: SELECT CERTAIN
	// always runs Plus. It is kept only because the benchmark module
	// (bench/) still sets it.
	AnalyzerSafe bool
	// OrigShape, PlusShape and StarShape are not set or read by the
	// engine; they are kept only because the benchmark module (bench/)
	// sets them (see eval.Shape).
	OrigShape *eval.Shape
	PlusShape *eval.Shape
	StarShape *eval.Shape
	// OrigOpt, PlusOpt and StarOpt are the corresponding expressions
	// planned for the route the key's options select, set for exactly
	// the expressions the plan's mode executes before the plan is Put:
	// the cost-based planner's rewrite, lowered, or with
	// Options.NaivePlanner the expression as translation produced it,
	// lowered. A plan depends only on its expression, the schema and
	// those options, so it is made once, on the cache miss. A cached
	// plan is immutable.
	OrigOpt *Optimized
	PlusOpt *Optimized
	StarOpt *Optimized
}

// Optimized is one planned expression cached alongside its baseline:
// the lowered plan (the planner's rewrite, or the baseline itself when
// no rule fired or the route is NaivePlanner's), the executor hints and
// the rules that fired, which EXPLAIN lists. Premises, Shape and
// Explain are not set or read by the engine; they are kept only because
// the benchmark module (bench/) sets them.
type Optimized struct {
	Expr     algebra.Expr
	Hints    *eval.PlanHints
	Fired    []plan.RuleKind
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
