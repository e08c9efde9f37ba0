// Package shard assigns the rows of relations and probe streams to N
// in-process engine shards by content hash (DESIGN.md §16). It supplies
// the three primitives the executor and the serving layer build on:
//
//   - HashRow / Partition: deterministic content hashing of rows and
//     hash-partitioning of a probe stream's row indices — the order
//     the executor's worker pool visits a keep loop's rows in when
//     Shards > 1, as a cross-process deployment would route them;
//   - KeyedBuild: the build side of a unification join — null-free
//     keys in a hash index, rows whose key contains a marked null in a
//     "wild" list every probe also scans, because a null unifies with
//     anything (paper Section 7). The same index serves every shard
//     count: sharding routes probe rows, it does not shape the build;
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
// in the same partition — the fact the wild-bucket soundness argument
// leans on. The fold never materializes the key: the router hashes
// every probe row of every routed keep loop, and value.FoldKey's
// property test pins the result to FNV-1a over value.RowKey's bytes.
func HashRow(row table.Row) uint64 {
	h := value.KeySeed
	for _, v := range row {
		h = value.FoldKey(h, v)
	}
	return h
}

// HashValue hashes a single attribute the same way HashRow hashes a
// row: values that compare equal (including int/float numeric
// cross-kind equality, and naive-mode nulls by mark) hash identically.
func HashValue(v value.Value) uint64 {
	return value.FoldKey(value.KeySeed, v)
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

// RowHasNull reports whether any attribute of the row is a marked
// null. Such a row unifies with arbitrary values, so partitioning by
// content hash cannot confine it to one shard.
func RowHasNull(row table.Row) bool {
	for _, v := range row {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// KeyedBuild is the build side of a unification join: a hash index over
// the rows whose key is null-free, plus the ascending wild list of rows
// whose key contains a marked null. It is the one physical operator for
// the two shapes the certain-answer translation emits and real
// optimizers refuse to hash (paper Section 7):
//
//   - a unification *edge* `a = b OR a IS NULL OR b IS NULL` (any subset
//     of the null tests), keyed on the build column b (BuildKeyed);
//   - the unification semijoin R ⋉⇑ S, keyed on the full row (BuildRows).
//
// Soundness is the "No More Nulls!" split: on the null-free part of a
// relation ordinary hashing is exact — values that compare equal fold to
// the same value.FoldKey hash, so any build row a non-null probe key can
// match sits in that key's bucket — and the part with nulls, which can
// match anything, is small and is scanned. The index is a pure superset
// filter: consumers still evaluate the full condition (or UnifyTuples)
// per candidate, so a hash collision costs one wasted evaluation and
// can never produce a wrong answer.
//
// Buckets and Wild hold row *indexes* in ascending order, and a Cursor
// merges them ascending, so consumers re-emit candidate pairs in exactly
// the order a product-then-filter pipeline visits them — the byte
// identity the ablation invariants demand. The buckets live in two flat
// slices behind one hash-to-slot map, not one slice per key.
type KeyedBuild struct {
	// Wild holds the indexes of rows whose key contains a null, ascending.
	Wild []int

	n    int            // build-side row count
	slot map[uint64]int // key hash -> bucket number
	offs []int          // bucket s is rows[offs[s]:offs[s+1]]
	rows []int          // keyed row indexes, ascending within each bucket
}

// BuildKeyed indexes a build side on column col. k is ignored: the
// index is the same at every shard count — Shards routes probe rows, it
// no longer shapes the build — and the parameter survives only so
// existing callers keep compiling.
func BuildKeyed(rows []table.Row, col, k int) *KeyedBuild {
	return build(len(rows), func(i int) (uint64, bool) {
		return HashValue(rows[i][col]), !rows[i][col].IsNull()
	})
}

// BuildRows indexes a build side on the full row, for the unification
// semijoin: value.UnifyTuples(lr, rr) with a null-free lr holds only
// when rr equals lr value for value (then HashRow agrees) or rr contains
// a null (then rr is wild).
func BuildRows(rows []table.Row) *KeyedBuild {
	return build(len(rows), func(i int) (uint64, bool) {
		return HashRow(rows[i]), !RowHasNull(rows[i])
	})
}

// build runs the two-pass counting construction: key reports row i's
// hash and whether the row is keyed (false sends it to Wild).
func build(n int, key func(i int) (uint64, bool)) *KeyedBuild {
	b := &KeyedBuild{n: n, slot: make(map[uint64]int)}
	slotOf := make([]int, n)
	var fill []int // per bucket: its size, then its write position
	for i := range slotOf {
		h, keyed := key(i)
		if !keyed {
			slotOf[i] = -1
			b.Wild = append(b.Wild, i)
			continue
		}
		s, seen := b.slot[h]
		if !seen {
			s = len(fill)
			b.slot[h] = s
			fill = append(fill, 0)
		}
		fill[s]++
		slotOf[i] = s
	}
	b.offs = make([]int, len(fill)+1)
	for s, size := range fill {
		b.offs[s+1] = b.offs[s] + size
		fill[s] = b.offs[s]
	}
	b.rows = make([]int, b.offs[len(fill)])
	for i, s := range slotOf {
		if s >= 0 {
			b.rows[fill[s]] = i
			fill[s]++
		}
	}
	return b
}

// Keyed is the number of build rows in hash buckets (the rest are wild).
func (b *KeyedBuild) Keyed() int { return len(b.rows) }

// EstimatedBytes is the coarse memory estimate of the index: one int
// per referenced row plus a map entry and an offset per distinct key.
func (b *KeyedBuild) EstimatedBytes() int64 {
	return int64(len(b.rows)+len(b.Wild))*8 + int64(len(b.offs))*24
}

// Cursor walks candidate build-row indexes in ascending order. The zero
// Cursor is exhausted.
type Cursor struct {
	bucket, wild []int // merged ascending
	i, n         int   // full scan of [i, n), with bucket and wild empty
}

// ScanAll returns the cursor over every index in [0, n): the nested
// loop, for probes the index cannot narrow.
func ScanAll(n int) Cursor { return Cursor{n: n} }

// Next returns the next candidate index, or ok=false when exhausted.
func (c *Cursor) Next() (i int, ok bool) {
	switch {
	case c.i < c.n:
		c.i++
		return c.i - 1, true
	case len(c.bucket) > 0 && (len(c.wild) == 0 || c.bucket[0] < c.wild[0]):
		i, c.bucket = c.bucket[0], c.bucket[1:]
		return i, true
	case len(c.wild) > 0:
		i, c.wild = c.wild[0], c.wild[1:]
		return i, true
	}
	return 0, false
}

// Probe returns the candidates for the probe key v against a BuildKeyed
// index: v's bucket merged with the wild rows. A null probe key can
// satisfy the edge against any build row (the null test, or mark
// equality under naive semantics) and scans them all.
func (b *KeyedBuild) Probe(v value.Value) Cursor {
	if v.IsNull() {
		return ScanAll(b.n)
	}
	return b.candidates(HashValue(v))
}

// ProbeRow is Probe for a BuildRows index: a probe row containing a
// null can unify with build rows of any bucket and scans them all.
func (b *KeyedBuild) ProbeRow(row table.Row) Cursor {
	if RowHasNull(row) {
		return ScanAll(b.n)
	}
	return b.candidates(HashRow(row))
}

func (b *KeyedBuild) candidates(h uint64) Cursor {
	c := Cursor{wild: b.Wild}
	if s, ok := b.slot[h]; ok {
		c.bucket = b.rows[b.offs[s]:b.offs[s+1]]
	}
	return c
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
