package table

import (
	"strings"

	"certsql/internal/value"
)

// NullKeys says what an Index does with a key that has a null component.
type NullKeys uint8

const (
	// NullsByMark keys a null by its mark, like any constant: grouping,
	// distinct, the set operators, division, and equality under naive
	// semantics, where marked nulls are values.
	NullsByMark NullKeys = iota
	// NullsSkip keeps a null-keyed row out of the index, and a null
	// probe key finds nothing: equality under SQL's three-valued logic,
	// where A = NULL is never true.
	NullsSkip
	// NullsWild puts a null-keyed row on the wild list that every probe
	// visits, and a null probe key visits every row: unification, where
	// a null matches anything ("No More Nulls!" — hash the null-free
	// part exactly, scan the part with nulls).
	NullsWild
)

// Index is the executor's one hash index: it buckets row positions by
// the value.AppendKey bytes of their key columns. Constants encode
// identically exactly when they compare equal (int/float cross-kind
// equality included, exact at any magnitude), so a bucket holds every
// row whose key equals the probe's and no other; consumers verify a
// candidate only against the part of their condition the key does not
// decide.
//
// In a built index, first maps a key to the lowest position holding
// it, plus one, and next chains every position to the next higher one
// with the same key, -1 ending the bucket. A bucket therefore costs no
// slice of its own and is walked in ascending order, merged with the
// ascending wild list, so consumers visit candidates in the order a
// nested loop would. An index grown by Insert maps a key to its group
// instead and keeps no chain.
type Index struct {
	nulls NullKeys
	first map[string]int
	next  []int
	wild  []int
	keyed int    // positions in buckets; for Insert, keys
	bytes int    // key bytes the map holds
	buf   []byte // Insert's key buffer
}

// appendKey is the one key encoding: it appends the value.AppendKey
// bytes of r's cols to b. null is set when a component is null and
// nulls does not key nulls by mark; the encoding is then incomplete and
// names no bucket.
func appendKey(b []byte, r Row, cols []int, nulls NullKeys) (key []byte, null bool) {
	for _, c := range cols {
		if nulls != NullsByMark && r[c].IsNull() {
			return b, true
		}
		b = value.AppendKey(b, r[c])
	}
	return b, false
}

// NewIndex returns an empty NullsByMark index for Insert, sized for
// size keys.
func NewIndex(size int) *Index {
	return &Index{first: make(map[string]int, size)}
}

// fixedKeyBytes is the encoded width of every value.AppendKey encoding
// but a string's and a bool's: a tag byte and eight payload bytes.
const fixedKeyBytes = 9

// BuildIndex indexes rows on cols, sized for size distinct keys. A row
// for which keep (nil keeps all) reports false stays out of the buckets
// and the wild list, as does a null-keyed row under NullsSkip. The keys
// are cut from one string, so the build allocates per index, not per
// key. The string is pre-sized as if every remaining row had the first
// key's width, capped at fixedKeyBytes per column — exact for numeric
// keys, and bounded by the row count when a long string comes first —
// and grows by appending beyond that.
func BuildIndex(rows []Row, cols []int, nulls NullKeys, size int, keep func(Row) bool) *Index {
	return BuildIndexParts([][]Row{rows}, cols, nulls, size, keep)
}

// BuildIndexParts is BuildIndex over the rows of parts, read in place
// as one sequence: positions number the first part's rows, then the
// second's, and so on.
func BuildIndexParts(parts [][]Row, cols []int, nulls NullKeys, size int, keep func(Row) bool) *Index {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	x := &Index{nulls: nulls, first: make(map[string]int, size), next: make([]int, n)}
	var arena strings.Builder
	var key []byte
	i := 0 // next[i] is where row i's key starts in the arena, -1 for none
	for _, p := range parts {
		for _, r := range p {
			x.next[i] = -1
			if keep == nil || keep(r) {
				var null bool
				if key, null = appendKey(key[:0], r, cols, nulls); !null {
					if arena.Cap() == 0 {
						arena.Grow(min(len(key), fixedKeyBytes*len(cols)) * (n - i))
					}
					x.next[i] = arena.Len()
					arena.Write(key)
				} else if nulls == NullsWild {
					x.wild = append(x.wild, i)
				}
			}
			i++
		}
	}
	keys := arena.String()
	x.bytes = len(keys)
	end := len(keys)
	for i := n - 1; i >= 0; i-- { // descending, so every bucket chains ascending
		if start := x.next[i]; start >= 0 {
			key := keys[start:end]
			x.next[i] = x.first[key] - 1
			x.first[key] = i + 1
			x.keyed++
			end = start
		}
	}
	return x
}

// Insert offers the next row of a NewIndex, keyed on cols, and returns
// its key's group — the number of distinct keys offered before the
// key's first occurrence — and whether this row is that occurrence.
// Only a fresh key is recorded, so the index holds state per group, not
// per row: streaming distinct and first-seen grouping need no second
// map, and a grouping keeps its accumulators in a slice by group.
func (x *Index) Insert(r Row, cols []int) (group int, fresh bool) {
	x.buf, _ = appendKey(x.buf[:0], r, cols, NullsByMark)
	if g := x.first[string(x.buf)]; g > 0 {
		return g - 1, false
	}
	group = len(x.first)
	x.first[string(x.buf)] = group + 1
	x.keyed++
	x.bytes += len(x.buf)
	return group, true
}

// Probe returns the candidates for the probe row r keyed on cols: the
// bucket of its key merged with the wild list, ascending. A null probe
// key finds nothing under NullsSkip and visits every position under
// NullsWild. key is the caller's buffer, reused from probe to probe so
// that probing does not allocate; concurrent probers each bring their
// own. x is a built index.
func (x *Index) Probe(r Row, cols []int, key *[]byte) Cursor {
	var null bool
	if *key, null = appendKey((*key)[:0], r, cols, x.nulls); null {
		if x.nulls == NullsWild {
			return ScanCursor(len(x.next))
		}
		return Cursor{}
	}
	return Cursor{x: x, at: x.first[string(*key)] - 1}
}

// Keyed is the number of positions in buckets.
func (x *Index) Keyed() int { return x.keyed }

// Wild is the number of positions on the wild list.
func (x *Index) Wild() int { return len(x.wild) }

// EstimatedBytes is the index's memory estimate for the governor: one
// int per row of a built index and per wild position, a map entry
// (string header and int, rounded up to 32 bytes) per key, and the key
// bytes.
func (x *Index) EstimatedBytes() int64 {
	return int64(8*(len(x.next)+len(x.wild)) + 32*len(x.first) + x.bytes)
}

// Cursor walks candidate positions in ascending order. The zero Cursor
// is exhausted.
type Cursor struct {
	x    *Index // nil for a full scan of [at, end)
	at   int    // the next bucket position; -1 when the bucket is done
	wild int    // the next wild position is x.wild[wild]
	end  int
}

// ScanCursor visits every position in [0, n): the nested loop, for
// probes no index narrows.
func ScanCursor(n int) Cursor { return Cursor{end: n} }

// Next returns the next candidate position, or ok=false when exhausted.
func (c *Cursor) Next() (i int, ok bool) {
	if c.x == nil {
		c.at++
		return c.at - 1, c.at <= c.end
	}
	// uint(-1) exceeds every position: a done bucket leaves the wild rows.
	if w := c.x.wild; c.wild < len(w) && uint(w[c.wild]) < uint(c.at) {
		c.wild++
		return w[c.wild-1], true
	}
	if i = c.at; i < 0 {
		return 0, false
	}
	c.at = c.x.next[i]
	return i, true
}
