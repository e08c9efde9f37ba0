// Package stats collects per-attribute table statistics — row counts,
// marked-null counts, distinct-value estimates — for the cost-based
// planner and the serving layer's catalog endpoints.
//
// Collection is incremental across copy-on-write publishes: every
// table carries a globally unique content generation (see
// table.Generation), so the collector caches per-table statistics by
// (relation name, generation) and rescans only tables whose content
// actually changed. The published DBStats snapshot is immutable and
// swapped in atomically, so concurrent readers never see a torn
// update.
//
// Distinct counts are exact up to ExactDistinctThreshold values and a
// deterministic KMV (k-minimum-values) sketch beyond it; DistinctBound
// declares the sketch's relative error bound, which the property tests
// in this package enforce. All estimates are monotone under row
// appends, so a republished snapshot with extra rows never shrinks an
// estimate — the planner's cost audit relies on that.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

const (
	// ExactDistinctThreshold is the number of distinct non-null values
	// up to which Distinct is exact (DistinctExact reports which).
	ExactDistinctThreshold = 4096
	// kmvK is the sketch size: the k smallest 64-bit value hashes kept.
	kmvK = 1024
	// DistinctBound is the declared relative error bound of sketched
	// distinct estimates: |est − true| ≤ DistinctBound·true. The KMV
	// standard error at k=1024 is ≈3%, so 15% is a ≥5σ envelope; the
	// property tests fail the build if an estimate ever escapes it.
	DistinctBound = 0.15
)

// ColStats are the statistics of one attribute.
type ColStats struct {
	// Nulls is the exact number of marked nulls in the column.
	Nulls int64
	// Distinct estimates the number of distinct non-null values.
	// Exact when DistinctExact; otherwise a KMV estimate within
	// DistinctBound relative error.
	Distinct int64
	// DistinctExact reports whether Distinct is an exact count.
	DistinctExact bool
}

// TableStats are the statistics of one relation instance.
type TableStats struct {
	// Name is the lower-cased relation name.
	Name string
	// Gen is the table content generation the stats were computed at.
	Gen uint64
	// Rows is the exact row count.
	Rows int64
	// Cols holds per-attribute statistics, indexed by column position.
	Cols []ColStats
}

// NullRate returns the fraction of rows whose col-th attribute is a
// marked null (0 on an empty table).
func (t *TableStats) NullRate(col int) float64 {
	if t == nil || t.Rows == 0 || col < 0 || col >= len(t.Cols) {
		return 0
	}
	return float64(t.Cols[col].Nulls) / float64(t.Rows)
}

// NullFree reports whether the col-th attribute provably holds no
// marked null in this snapshot of the data.
func (t *TableStats) NullFree(col int) bool {
	return t != nil && col >= 0 && col < len(t.Cols) && t.Cols[col].Nulls == 0
}

// DBStats is one immutable statistics snapshot over a whole database.
type DBStats struct {
	// Tables maps lower-cased relation names to their statistics.
	Tables map[string]*TableStats
}

// Table returns the named relation's statistics (case-insensitive), or
// nil when unknown. Safe on a nil receiver.
func (s *DBStats) Table(name string) *TableStats {
	if s == nil {
		return nil
	}
	return s.Tables[strings.ToLower(name)]
}

// Summary renders the snapshot for logs, one relation per line.
func (s *DBStats) Summary() string {
	if s == nil {
		return "stats: none"
	}
	names := make([]string, 0, len(s.Tables))
	for n := range s.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := s.Tables[n]
		fmt.Fprintf(&b, "%s: rows=%d", n, t.Rows)
		for i, c := range t.Cols {
			exact := ""
			if !c.DistinctExact {
				exact = "~"
			}
			fmt.Fprintf(&b, " [%d: nulls=%d distinct=%s%d]", i, c.Nulls, exact, c.Distinct)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Collector computes DBStats snapshots, caching per-table statistics
// by content generation so republished databases only pay for the
// tables that changed. It is safe for concurrent use; Current is a
// lock-free read of the latest snapshot.
type Collector struct {
	mu    sync.Mutex
	cache map[string]*TableStats // relation name → stats at stats.Gen
	cur   atomic.Pointer[DBStats]
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{cache: map[string]*TableStats{}}
}

// Current returns the latest collected snapshot, or nil before the
// first Collect. It never blocks, regardless of concurrent collects.
func (c *Collector) Current() *DBStats {
	if c == nil {
		return nil
	}
	return c.cur.Load()
}

// Collect computes (or serves from the generation cache) statistics
// for every relation of db, publishes the snapshot as Current, and
// returns it.
func (c *Collector) Collect(db *table.Database) *DBStats {
	s, _ := c.CollectGoverned(nil, db)
	return s
}

// CollectGoverned is Collect under a governor: each uncached table
// scan first passes the stats-collect fault site and the governor's
// cancellation poll, so chaos testing can prove a fault here surfaces
// as a typed error, never a panic or a torn snapshot. A nil governor
// is the ungoverned path. On error nothing is published.
func (c *Collector) CollectGoverned(gov *guard.Governor, db *table.Database) (*DBStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &DBStats{Tables: make(map[string]*TableStats, len(db.Schema.Names()))}
	for _, name := range db.Schema.Names() {
		name = strings.ToLower(name)
		t := db.MustTable(name)
		if ts := c.cache[name]; ts != nil && ts.Gen == t.Generation() {
			out.Tables[name] = ts
			continue
		}
		if err := gov.Fault(guard.SiteStatsCollect); err != nil {
			return nil, err
		}
		if gov != nil {
			if err := gov.Poll("stats-collect"); err != nil {
				return nil, err
			}
		}
		ts := scanTable(name, t)
		out.Tables[name] = ts
	}
	for name, ts := range out.Tables {
		c.cache[name] = ts
	}
	c.cur.Store(out)
	return out, nil
}

// scanTable computes exact row/null counts and per-column distinct
// estimates in one pass over the table.
func scanTable(name string, t *table.Table) *TableStats {
	ts := &TableStats{Name: name, Gen: t.Generation(), Rows: int64(t.Len()), Cols: make([]ColStats, t.Arity())}
	sketches := make([]distinctSketch, t.Arity())
	for _, row := range t.Rows() {
		for i, v := range row {
			if v.IsNull() {
				ts.Cols[i].Nulls++
				continue
			}
			sketches[i].add(v)
		}
	}
	for i := range ts.Cols {
		ts.Cols[i].Distinct, ts.Cols[i].DistinctExact = sketches[i].estimate()
	}
	return ts
}

// distinctSketch counts distinct values exactly up to
// ExactDistinctThreshold, then falls back to a KMV (k-minimum-values)
// estimator over a deterministic 64-bit value hash. Both phases are
// monotone under inserts: the exact count grows with new values, and
// the KMV estimate (k−1)·2⁶⁴/h_k can only grow as smaller hashes
// enter the k-set. The sketched estimate is additionally floored at
// the threshold, so it never dips below any count the exact phase
// could have reported.
type distinctSketch struct {
	exact    map[uint64]struct{}
	overflow bool
	kmv      []uint64 // max-heap of the k smallest hashes seen
	inKMV    map[uint64]struct{}
}

func (d *distinctSketch) add(v value.Value) {
	h := hashValue(v)
	if d.exact == nil {
		d.exact = make(map[uint64]struct{}, 64)
	}
	if !d.overflow {
		d.exact[h] = struct{}{}
		if len(d.exact) <= ExactDistinctThreshold {
			return
		}
		// Crossing the threshold: seed the KMV set from the exact set.
		d.overflow = true
		d.inKMV = make(map[uint64]struct{}, kmvK)
		for eh := range d.exact {
			d.pushKMV(eh)
		}
		d.exact = nil
		return
	}
	d.pushKMV(h)
}

// pushKMV offers h to the k-smallest set (a max-heap so the largest
// retained hash is at the root for O(1) comparison).
func (d *distinctSketch) pushKMV(h uint64) {
	if _, dup := d.inKMV[h]; dup {
		return
	}
	if len(d.kmv) < kmvK {
		d.inKMV[h] = struct{}{}
		d.kmv = append(d.kmv, h)
		d.siftUp(len(d.kmv) - 1)
		return
	}
	if h >= d.kmv[0] {
		return
	}
	delete(d.inKMV, d.kmv[0])
	d.inKMV[h] = struct{}{}
	d.kmv[0] = h
	d.siftDown(0)
}

func (d *distinctSketch) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if d.kmv[p] >= d.kmv[i] {
			return
		}
		d.kmv[p], d.kmv[i] = d.kmv[i], d.kmv[p]
		i = p
	}
}

func (d *distinctSketch) siftDown(i int) {
	n := len(d.kmv)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && d.kmv[l] > d.kmv[big] {
			big = l
		}
		if r < n && d.kmv[r] > d.kmv[big] {
			big = r
		}
		if big == i {
			return
		}
		d.kmv[i], d.kmv[big] = d.kmv[big], d.kmv[i]
		i = big
	}
}

func (d *distinctSketch) estimate() (n int64, exact bool) {
	if !d.overflow {
		return int64(len(d.exact)), true
	}
	// KMV estimator: with h_k the k-th smallest of uniformly hashed
	// distinct values, E[distinct] ≈ (k−1)·2⁶⁴/h_k.
	hk := d.kmv[0]
	if hk == 0 {
		hk = 1
	}
	est := float64(len(d.kmv)-1) * (math.MaxUint64 / float64(hk))
	if est < ExactDistinctThreshold {
		est = ExactDistinctThreshold
	}
	return int64(est), false
}

// hashValue is a deterministic 64-bit FNV-1a hash of a value's kind
// and payload. Determinism matters twice over: estimates are
// reproducible across runs (golden EXPLAIN output), and a rescan of a
// superset of rows extends the same hash sequence, which is what makes
// the KMV estimate monotone across republishes.
func hashValue(v value.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	step(byte(v.Kind()))
	word := func(u uint64) {
		for i := 0; i < 8; i++ {
			step(byte(u >> (8 * i)))
		}
	}
	switch v.Kind() {
	case value.KindInt:
		word(uint64(v.AsInt()))
	case value.KindFloat:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // -0.0 and 0.0 are one value (value.Compare)
		}
		word(math.Float64bits(f))
	case value.KindDate:
		word(uint64(v.AsDate()))
	case value.KindBool:
		if v.AsBool() {
			step(1)
		}
	case value.KindString:
		for i := 0; i < len(v.AsString()); i++ {
			step(v.AsString()[i])
		}
	case value.KindNull:
		word(uint64(v.NullID()))
	}
	return h
}
