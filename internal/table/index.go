package table

import (
	"errors"
	"math"
	"slices"

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
// their key columns' values. Keys share a bucket exactly when they are
// value.KeyEqual (equal value.AppendKey encodings: int/float cross-kind
// equality included, nulls by mark), so consumers verify a candidate
// only against the part of their condition the key does not decide.
//
// The table is open-addressed: slots of a 32-bit value.KeyHash tag and
// a bucket, probed linearly, at most half full. A tag match is checked
// in place, against the bucket's build row, read from the parts, or the
// dense copy of each group's key values an Insert-grown index keeps. A
// built index's slot holds the lowest position with its key, and next
// chains each position to the next higher one with the same key (-1
// ends it): buckets are walked in ascending order, merged with the
// ascending wild list, in the order a nested loop would visit them.
// Positions and groups are int32s.
type Index struct {
	nulls NullKeys
	slots []slot
	used  int // occupied slots
	next  []int32
	wild  []int32
	keyed int           // positions in buckets; for Insert, keys
	parts [][]Row       // a built index's rows, in place
	cols  []int         // a built index's key columns
	keys  []value.Value // Insert: group g's key is keys[g*k : (g+1)*k]
}

// slot is a bucket's head position, or a group, plus one (0: empty);
// while a build runs, at is the bucket's tail, whose next is the head.
type slot struct {
	tag uint32
	at  int32
}

// ErrIndexSize is what an index of 2³¹−1 positions or groups panics with.
var ErrIndexSize = errors.New("table: an index holds fewer than 2^31-1 positions")

// NewIndex returns an empty NullsByMark index for Insert, sized for
// size keys.
func NewIndex(size int) *Index { return &Index{slots: slots(size)} }

const minSlots = 8 // the smallest table, one cache line

// slots makes a table for size keys at a load of at most one half.
func slots(size int) []slot {
	n := minSlots
	for n < 2*size {
		n *= 2
	}
	return make([]slot, n)
}

// BuildIndex indexes rows on cols, sized for size distinct keys. A row
// for which keep (nil keeps all) reports false stays out of the buckets
// and the wild list, as does a null-keyed row under NullsSkip. The rows
// are read in place, neither copied nor encoded.
func BuildIndex(rows []Row, cols []int, nulls NullKeys, size int, keep func(Row) bool) *Index {
	return BuildIndexParts([][]Row{rows}, cols, nulls, size, keep)
}

// BuildIndexParts is BuildIndex over parts read as one sequence:
// positions number the first part's rows, then the second's, and on.
func BuildIndexParts(parts [][]Row, cols []int, nulls NullKeys, size int, keep func(Row) bool) *Index {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n >= math.MaxInt32 {
		panic(ErrIndexSize)
	}
	x := &Index{nulls: nulls, slots: slots(min(size, n)), next: make([]int32, n), parts: parts, cols: cols}
	i := int32(0)
	for _, p := range parts {
		for _, r := range p {
			x.next[i] = -1
			if keep == nil || keep(r) {
				x.place(r, i)
			}
			i++
		}
	}
	for k := range x.slots { // cut each ring after its tail
		if s := &x.slots[k]; s.at > 0 {
			s.at, x.next[s.at-1] = x.next[s.at-1]+1, -1
		}
	}
	return x
}

// place puts position i, holding r, last in its key's ring, or wild.
func (x *Index) place(r Row, i int32) {
	s, tag, null := x.find(r, x.cols)
	if null {
		if x.nulls == NullsWild {
			x.wild = append(x.wild, i)
		}
		return
	}
	x.keyed++
	if s.at == 0 { // a ring of one
		s.tag, s.at, x.next[i] = tag, i+1, i
		x.added()
		return
	}
	tail := s.at - 1 // i follows the tail, whose next is the head
	x.next[i], x.next[tail], s.at = x.next[tail], i, i+1
}

// Insert offers the next row of a NewIndex, keyed on cols, and returns
// its key's group — the number of distinct keys offered before the
// key's first occurrence — and whether this row is that occurrence.
// Only a fresh key is recorded: the index holds state per group, and a
// grouping keeps its accumulators in a slice by group.
func (x *Index) Insert(r Row, cols []int) (group int, fresh bool) {
	s, tag, _ := x.find(r, cols)
	if s.at > 0 {
		return int(s.at - 1), false
	}
	if x.keyed == math.MaxInt32-1 {
		panic(ErrIndexSize)
	}
	group, s.tag, s.at = x.keyed, tag, int32(x.keyed+1)
	for _, c := range cols {
		x.keys = append(x.keys, r[c])
	}
	x.keyed++
	x.added()
	return group, true
}

// find returns the slot of r's key on cols, or the empty one it would
// take, and its tag; null, when x does not key r's null component.
func (x *Index) find(r Row, cols []int) (s *slot, tag uint32, null bool) {
	h := value.KeySeed
	for _, c := range cols {
		if x.nulls != NullsByMark && r[c].IsNull() {
			return nil, 0, true
		}
		h = value.KeyHash(h, r[c])
	}
	tag = uint32(h)
	for i, mask := tag, uint32(len(x.slots)-1); ; i++ {
		if s = &x.slots[i&mask]; s.at == 0 || s.tag == tag && x.same(r, cols, int(s.at-1)) {
			return s, tag, false
		}
	}
}

// same reports whether r's key on cols is the key of group at, or of
// the row at position at.
func (x *Index) same(r Row, cols []int, at int) bool {
	if x.parts == nil {
		key := x.keys[at*len(cols) : (at+1)*len(cols)]
		return slices.EqualFunc(cols, key, func(c int, v value.Value) bool { return value.KeyEqual(r[c], v) })
	}
	p := 0
	for ; at >= len(x.parts[p]); p++ {
		at -= len(x.parts[p])
	}
	b := x.parts[p][at]
	return slices.EqualFunc(cols, x.cols, func(c, bc int) bool { return value.KeyEqual(r[c], b[bc]) })
}

// added counts an occupied slot; past a load of one half it doubles
// the table, placing each slot again by its tag.
func (x *Index) added() {
	if x.used++; 2*x.used <= len(x.slots) {
		return
	}
	old, mask := x.slots, uint32(2*len(x.slots)-1)
	x.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.at == 0 {
			continue
		}
		i := s.tag & mask
		for x.slots[i].at > 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// Probe returns the candidates for the probe row r keyed on cols: the
// bucket of its key merged with the wild list, ascending. A null probe
// key finds nothing under NullsSkip and visits every position under
// NullsWild. Probing writes nothing, so goroutines may share an index.
func (x *Index) Probe(r Row, cols []int) Cursor {
	if s, _, null := x.find(r, cols); !null {
		return Cursor{x: x, at: int(s.at) - 1}
	} else if x.nulls == NullsWild {
		return ScanCursor(len(x.next))
	}
	return Cursor{}
}

// Keyed is the number of positions in buckets.
func (x *Index) Keyed() int { return x.keyed }

// Wild is the number of positions on the wild list.
func (x *Index) Wild() int { return len(x.wild) }

// EstimatedBytes is the index's memory estimate for the governor: the
// slots, an int32 per position and wild position, and copied keys.
func (x *Index) EstimatedBytes() int64 {
	return int64(8*len(x.slots) + 4*(len(x.next)+len(x.wild)) + int(valueBytes)*len(x.keys))
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
		return int(w[c.wild-1]), true
	}
	if i = c.at; i < 0 {
		return 0, false
	}
	c.at = int(c.x.next[i])
	return i, true
}
