// Package shard assigns the rows of relations and probe streams to N
// in-process engine shards by content hash (DESIGN.md §16). It supplies
// the two primitives the executor and the serving layer build on:
//
//   - HashRow / Partition: deterministic content hashing of rows and
//     hash-partitioning of a probe stream's row indices — the order
//     the executor's worker pool visits a keep loop's rows in when
//     Shards > 1, as a cross-process deployment would route them;
//   - PartitionedStore: a snapshot-store wrapper satisfying the
//     server.Catalog seam that reports per-shard partition row counts
//     for /metrics, cached by table content generation.
//
// Determinism is the package's contract: every function here is a pure
// function of row content and the shard count, so a sharded execution
// can be replayed — and byte-compared against Shards: 1 — from a seed
// alone.
package shard

import (
	"sync"

	"certsql/internal/table"
	"certsql/internal/value"
)

// HashRow returns a deterministic 64-bit FNV-1a hash of a row's
// canonical key. Values that compare equal render identical keys
// (value.RowKey's property test pins this), so equal rows always land
// in the same partition. The fold never materializes the key: the
// router hashes every probe row of every routed keep loop, and
// value.FoldKey's property test pins the result to FNV-1a over
// value.RowKey's bytes.
func HashRow(row table.Row) uint64 {
	h := value.KeySeed
	for _, v := range row {
		h = value.FoldKey(h, v)
	}
	return h
}

// Partition splits the row indices 0..len(rows)-1 across k shards by
// content hash, ascending within each shard. Contiguous chunking would
// be cheaper, but hash routing is what a distributed deployment
// performs, and exercising it here is the point: the executor visits
// rows grouped by owner and must still answer in global input order.
func Partition(rows []table.Row, k int) [][]int {
	parts := make([][]int, k)
	if k <= 0 {
		return parts
	}
	for i, r := range rows {
		s := int(HashRow(r) % uint64(k))
		parts[s] = append(parts[s], i)
	}
	return parts
}

// BuildKeyed indexes rows for unification on column col; k is ignored.
// Only the benchmark module calls it, and it goes when that stops.
func BuildKeyed(rows []table.Row, col, k int) *table.Index {
	return table.BuildIndex(rows, []int{col}, table.NullsWild, 0, nil)
}

// Catalog is the snapshot-store seam PartitionedStore wraps: the same
// method set as server.Catalog, redeclared here so the dependency
// points store-ward (the server imports shard, not the reverse). Both
// table.Store and persist.Store satisfy it.
type Catalog interface {
	Snapshot() *table.Snapshot
	Version() uint64
	Update(mutate func(db *table.Database) error) (uint64, error)
}

// PartitionedStore wraps a snapshot store with shard-partition
// bookkeeping: reads and updates delegate to the inner store (the
// partitioning is virtual — rows are routed at execution time, never
// physically moved), while PartitionCounts exposes how each relation's
// rows spread across the shards, cached by table content generation so
// republished snapshots only pay for the tables that changed.
type PartitionedStore struct {
	inner  Catalog
	shards int

	mu    sync.Mutex
	cache map[string]partEntry
}

type partEntry struct {
	gen    uint64
	counts []int64
}

// NewPartitionedStore wraps inner for k shards (k < 1 is pinned to 1).
func NewPartitionedStore(inner Catalog, k int) *PartitionedStore {
	if k < 1 {
		k = 1
	}
	return &PartitionedStore{inner: inner, shards: k, cache: map[string]partEntry{}}
}

// Shards returns the configured shard count.
func (p *PartitionedStore) Shards() int { return p.shards }

// Snapshot returns the inner store's current snapshot.
func (p *PartitionedStore) Snapshot() *table.Snapshot { return p.inner.Snapshot() }

// Version returns the inner store's current version.
func (p *PartitionedStore) Version() uint64 { return p.inner.Version() }

// Update delegates to the inner store; the partition cache needs no
// invalidation because entries are keyed by content generation.
func (p *PartitionedStore) Update(mutate func(db *table.Database) error) (uint64, error) {
	return p.inner.Update(mutate)
}

// PartitionCounts returns, for each relation of the current snapshot,
// the number of rows each shard owns under hash partitioning. The
// result is freshly allocated per call at the map level; the count
// slices are cached and must not be mutated.
func (p *PartitionedStore) PartitionCounts() map[string][]int64 {
	snap := p.inner.Snapshot()
	out := make(map[string][]int64)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range snap.DB.Schema.Names() {
		t := snap.DB.MustTable(name)
		if e, ok := p.cache[name]; ok && e.gen == t.Generation() {
			out[name] = e.counts
			continue
		}
		counts := make([]int64, p.shards)
		for _, r := range t.Rows() {
			counts[int(HashRow(r)%uint64(p.shards))]++
		}
		p.cache[name] = partEntry{gen: t.Generation(), counts: counts}
		out[name] = counts
	}
	return out
}
