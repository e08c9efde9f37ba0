// Package table provides in-memory relation instances: row storage,
// hash indexes, set operations, and the incomplete database (a catalog
// of named tables over a schema).
package table

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"certsql/internal/schema"
	"certsql/internal/value"
)

// Row is one tuple. Rows are never mutated after insertion.
type Row = []value.Value

// genCounter mints globally unique table generations. Every mutation of
// any table assigns a fresh generation, so two tables with the same
// generation are guaranteed to hold identical rows — the property the
// statistics collector's cache keys on. Clone deliberately copies the
// generation: a clone has the same content, so sharing cached per-table
// statistics across copy-on-write publishes is sound.
var genCounter atomic.Uint64

// Table is a bag of rows of a fixed arity.
type Table struct {
	arity int
	gen   uint64
	rows  []Row
	nulls atomic.Pointer[nullLists] // see NullRows
}

// nullLists is NullRows' cache for generation gen: per column, built
// on first use, the rows with a null there and their positions.
type nullLists struct {
	gen  uint64
	cols []atomic.Pointer[nullList]
}

type nullList struct {
	rows []Row
	pos  []int
}

// New returns an empty table of the given arity.
func New(arity int) *Table { return &Table{arity: arity, gen: genCounter.Add(1)} }

// FromRows builds a table of one generation over rows, all of which
// must share the arity. The table takes rows as its storage, with the
// capacity clipped to the length, so an Append reallocates rather than
// writing into an array the caller shares; the caller must not change
// rows afterwards. It panics on arity mismatch, as Append does.
func FromRows(arity int, rows []Row) *Table {
	for _, r := range rows {
		if len(r) != arity {
			panic(fmt.Sprintf("table: row of arity %d in table of arity %d", len(r), arity))
		}
	}
	return &Table{arity: arity, gen: genCounter.Add(1), rows: slices.Clip(rows)}
}

// Arity returns the number of columns.
func (t *Table) Arity() int { return t.arity }

// Len returns the number of rows (bag cardinality).
func (t *Table) Len() int { return len(t.rows) }

// Rows exposes the backing rows. Callers must not mutate them.
func (t *Table) Rows() []Row { return t.rows }

// Generation returns the table's content generation: a globally unique
// id reassigned on every mutation. Equal generations imply identical
// content (Clone preserves the generation; mutation always changes it),
// so caches of content-derived artifacts — per-table statistics — can
// key on (relation name, generation).
func (t *Table) Generation() uint64 { return t.gen }

// Row returns the i-th row.
func (t *Table) Row(i int) Row { return t.rows[i] }

// NullRows returns the rows whose column col holds a marked null and
// their positions, in ascending position; callers must not mutate them.
// A column's lists are built on first use per generation, at their
// exact size (a counting pass, then a filling one); later calls, from
// any goroutine or a clone, share them, and a mutation's new generation
// makes the next call rebuild them.
func (t *Table) NullRows(col int) ([]Row, []int) {
	l := t.nulls.Load()
	if l == nil || l.gen != t.gen {
		fresh := &nullLists{gen: t.gen, cols: make([]atomic.Pointer[nullList], t.arity)}
		if !t.nulls.CompareAndSwap(l, fresh) {
			fresh = t.nulls.Load() // a concurrent first use won; share its lists
		}
		l = fresh
	}
	c := l.cols[col].Load()
	if c == nil {
		n := 0
		for _, r := range t.rows {
			if r[col].IsNull() {
				n++
			}
		}
		c = &nullList{rows: make([]Row, 0, n), pos: make([]int, 0, n)}
		for i, r := range t.rows {
			if r[col].IsNull() {
				c.rows, c.pos = append(c.rows, r), append(c.pos, i)
			}
		}
		l.cols[col].Store(c)
	}
	return c.rows, c.pos
}

// Append adds a row. It panics on arity mismatch — a programming error.
func (t *Table) Append(r Row) {
	if len(r) != t.arity {
		panic(fmt.Sprintf("table: appending row of arity %d to table of arity %d", len(r), t.arity))
	}
	t.rows = append(t.rows, r)
	t.gen = genCounter.Add(1)
}

// SetRow replaces the i-th row. It panics on arity mismatch. Replacing
// (rather than mutating) rows keeps clones of the table independent:
// Clone copies the row-pointer slice, so replacement is not visible
// through other clones while in-place mutation would be.
func (t *Table) SetRow(i int, r Row) {
	if len(r) != t.arity {
		panic(fmt.Sprintf("table: setting row of arity %d in table of arity %d", len(r), t.arity))
	}
	t.rows[i] = r
	t.gen = genCounter.Add(1)
}

// Value and row-header sizes used by EstimatedBytes. A value.Value is
// a 40-byte struct (kind + three payload fields); each row adds a
// slice header. String payloads are not counted — the estimate is
// deliberately coarse and monotone in row count and arity.
const (
	valueBytes     = 40
	rowHeaderBytes = 24
)

// EstimatedBytes returns a coarse estimate of the table's in-memory
// size, used by the resource governor for memory accounting at
// operator boundaries.
func (t *Table) EstimatedBytes() int64 {
	return int64(t.Len()) * EstimatedRowBytes(t.arity)
}

// EstimatedRowBytes is EstimatedBytes' share of one row of the given
// arity: a table's estimate is its row count times this.
func EstimatedRowBytes(arity int) int64 {
	return rowHeaderBytes + valueBytes*int64(arity)
}

// Grow pre-allocates capacity for n additional rows.
func (t *Table) Grow(n int) {
	if cap(t.rows)-len(t.rows) < n {
		rows := make([]Row, len(t.rows), len(t.rows)+n)
		copy(rows, t.rows)
		t.rows = rows
	}
}

// Distinct returns a new table with duplicate rows removed (set
// semantics). Duplicate detection uses the canonical row key, so marked
// nulls are distinct unless their marks coincide.
func (t *Table) Distinct() *Table {
	out := New(t.arity)
	seen := make(map[string]struct{}, len(t.rows))
	for _, r := range t.rows {
		k := value.RowKey(r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.Append(r)
	}
	return out
}

// Contains reports whether the table contains a row identical to r:
// one whose key encoding, marks included, is r's. Every stored row is
// encoded into the same reused buffer.
func (t *Table) Contains(r Row) bool {
	if len(r) != t.arity {
		return false // every value encodes to at least one byte: no row of another arity matches
	}
	all := make([]int, t.arity)
	for i := range all {
		all[i] = i
	}
	want, _ := appendKey(nil, r, all, NullsByMark)
	var buf []byte
	for _, s := range t.rows {
		if buf, _ = appendKey(buf[:0], s, all, NullsByMark); string(buf) == string(want) {
			return true
		}
	}
	return false
}

// KeySet returns the set of canonical row keys, for set operations.
func (t *Table) KeySet() map[string]struct{} {
	s := make(map[string]struct{}, len(t.rows))
	for _, r := range t.rows {
		s[value.RowKey(r)] = struct{}{}
	}
	return s
}

// SortedStrings renders each row as a string and sorts them; used by
// tests and examples to compare results deterministically.
func (t *Table) SortedStrings() []string {
	out := make([]string, 0, len(t.rows))
	for _, r := range t.rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, "("+strings.Join(parts, ", ")+")")
	}
	sort.Strings(out)
	return out
}

// String renders the table, one row per line, in insertion order.
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		b.WriteString("(" + strings.Join(parts, ", ") + ")\n")
	}
	return b.String()
}

// NotNullViolation reports a null stored in (or offered to) an
// attribute the schema declares NOT NULL.
type NotNullViolation struct {
	Relation  string
	Attribute string
	Col       int
}

func (e *NotNullViolation) Error() string {
	return fmt.Sprintf("table: relation %q attribute %q (column %d): null in NOT NULL attribute",
		e.Relation, e.Attribute, e.Col)
}

// Database is an incomplete database instance: a schema plus one table
// per relation. It also tracks the next fresh null mark, so loaders and
// generators can mint globally unique marked nulls.
//
// The schema's NOT NULL declarations are integrity constraints: Insert
// and ReplaceRow reject a null in a non-nullable attribute, so stored
// data always honours them (mutating a Table obtained from the catalog
// directly bypasses the check).
type Database struct {
	Schema   *schema.Schema
	tables   map[string]*Table
	nextNull int64

	// recorder, when set, observes every successful Insert and
	// ReplaceRow — the delta capture the persistent store's write-ahead
	// log is built on. Clone deliberately does not copy it: a recorder
	// is attached to one private clone for the duration of one
	// Store.Update and must never leak into published snapshots.
	recorder func(Op)
}

// OpKind distinguishes the recorded catalog mutations.
type OpKind uint8

const (
	// OpInsert records a row appended to a relation.
	OpInsert OpKind = iota
	// OpReplace records a row replaced in place.
	OpReplace
)

// Op is one recorded catalog mutation: the exact, replayable effect of
// a successful Insert or ReplaceRow. Replaying a sequence of Ops
// against a clone of the pre-state database reproduces the post-state
// byte for byte, which is the contract the write-ahead log depends on.
type Op struct {
	Kind  OpKind
	Table string
	// Index is the replaced row's position (OpReplace only).
	Index int
	Row   Row
}

// SetRecorder installs fn to observe every subsequent successful
// mutation (nil uninstalls). The recorder sees each op after it has
// been applied, in application order.
func (db *Database) SetRecorder(fn func(Op)) { db.recorder = fn }

// NextNullMark returns the mark the next FreshNull call would mint.
// Together with the recorded ops this makes a mutation fully
// replayable: apply the ops, then SetNextNullMark to the captured
// post-state value.
func (db *Database) NextNullMark() int64 { return db.nextNull }

// NewDatabase returns an empty database over the given schema, with an
// empty table pre-created for every relation.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, tables: map[string]*Table{}, nextNull: 1}
	for _, name := range s.Names() {
		r, _ := s.Relation(name)
		db.tables[name] = New(r.Arity())
	}
	return db
}

// Table returns the instance of the named relation (case-insensitive),
// or an error when the relation is not in the schema.
func (db *Database) Table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("table: unknown relation %q", name)
	}
	return t, nil
}

// MustTable is Table that panics on unknown relations.
func (db *Database) MustTable(name string) *Table {
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// ConformsNonNull is not read by the engine: Insert and ReplaceRow
// enforce every NOT NULL declaration, so stored data always conforms.
// It is kept only because the benchmark module (bench/) still calls it.
func (db *Database) ConformsNonNull() bool { return true }

// nonNullCheck returns the first null r (against rel) stores in a NOT
// NULL attribute, as a *NotNullViolation.
func nonNullCheck(rel *schema.Relation, r Row) error {
	for i, v := range r {
		if v.IsNull() && !rel.Attrs[i].Nullable {
			return &NotNullViolation{Relation: rel.Name, Attribute: rel.Attrs[i].Name, Col: i}
		}
	}
	return nil
}

// Insert appends a row to the named relation, validating arity and
// column types. A null in a NOT NULL attribute is rejected with a
// *NotNullViolation.
func (db *Database) Insert(name string, r Row) error {
	rel, ok := db.Schema.Relation(name)
	if !ok {
		return fmt.Errorf("table: unknown relation %q", name)
	}
	if len(r) != rel.Arity() {
		return fmt.Errorf("table: relation %q: row arity %d, want %d", name, len(r), rel.Arity())
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := rel.Attrs[i].Type
		if v.Kind() != want && !(numericKind(v.Kind()) && numericKind(want)) {
			return fmt.Errorf("table: relation %q attribute %q: value %s has kind %s, want %s",
				name, rel.Attrs[i].Name, v, v.Kind(), want)
		}
	}
	if err := nonNullCheck(rel, r); err != nil {
		return err
	}
	db.tables[strings.ToLower(name)].Append(r)
	if db.recorder != nil {
		db.recorder(Op{Kind: OpInsert, Table: strings.ToLower(name), Row: r})
	}
	return nil
}

// ReplaceRow replaces row i of the named relation, rejecting a null in
// a NOT NULL attribute as Insert does. Mutators (null injectors,
// minimizers) must use this instead of Table.SetRow.
func (db *Database) ReplaceRow(name string, i int, r Row) error {
	rel, ok := db.Schema.Relation(name)
	if !ok {
		return fmt.Errorf("table: unknown relation %q", name)
	}
	if len(r) != rel.Arity() {
		return fmt.Errorf("table: relation %q: row arity %d, want %d", name, len(r), rel.Arity())
	}
	t := db.tables[strings.ToLower(name)]
	if i < 0 || i >= t.Len() {
		return fmt.Errorf("table: relation %q: row index %d out of range [0, %d)", name, i, t.Len())
	}
	if err := nonNullCheck(rel, r); err != nil {
		return err
	}
	t.SetRow(i, r)
	if db.recorder != nil {
		db.recorder(Op{Kind: OpReplace, Table: strings.ToLower(name), Index: i, Row: r})
	}
	return nil
}

func numericKind(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat }

// FreshNull mints a marked null with a previously unused mark.
func (db *Database) FreshNull() value.Value {
	id := db.nextNull
	db.nextNull++
	return value.Null(id)
}

// SetNextNullMark makes subsequent FreshNull calls start from mark id.
func (db *Database) SetNextNullMark(id int64) { db.nextNull = id }

// NullCount returns the total number of null entries across all tables.
func (db *Database) NullCount() int {
	n := 0
	for _, t := range db.tables {
		for _, r := range t.rows {
			for _, v := range r {
				if v.IsNull() {
					n++
				}
			}
		}
	}
	return n
}

// Nulls returns the distinct null marks occurring in the database, in
// ascending order.
func (db *Database) Nulls() []int64 {
	seen := map[int64]struct{}{}
	for _, t := range db.tables {
		for _, r := range t.rows {
			for _, v := range r {
				if v.IsNull() {
					seen[v.NullID()] = struct{}{}
				}
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Constants returns the distinct constants occurring in the database
// (the constant part of the active domain), in a deterministic order.
func (db *Database) Constants() []value.Value {
	seen := map[value.Value]struct{}{}
	for _, t := range db.tables {
		for _, r := range t.rows {
			for _, v := range r {
				if !v.IsNull() {
					seen[v] = struct{}{}
				}
			}
		}
	}
	out := make([]value.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ActiveDomain returns all elements (constants and nulls) occurring in
// the database, constants first, in a deterministic order.
func (db *Database) ActiveDomain() []value.Value {
	out := db.Constants()
	for _, id := range db.Nulls() {
		out = append(out, value.Null(id))
	}
	return out
}

// Clone returns a deep-enough copy of the database: tables are copied,
// rows are shared (rows are immutable by convention).
func (db *Database) Clone() *Database {
	out := &Database{Schema: db.Schema, tables: map[string]*Table{}, nextNull: db.nextNull}
	for name, t := range db.tables {
		nt := New(t.arity)
		nt.rows = append(nt.rows, t.rows...)
		nt.gen = t.gen // same content ⇒ same generation (see genCounter)
		nt.nulls.Store(t.nulls.Load())
		out.tables[name] = nt
	}
	return out
}

// Apply returns the complete database v(D) obtained by replacing every
// null ⊥ᵢ with valuation[i]. Marks missing from the valuation map are
// left untouched (callers building full valuations must cover all marks).
func (db *Database) Apply(valuation map[int64]value.Value) *Database {
	out := &Database{Schema: db.Schema, tables: map[string]*Table{}, nextNull: db.nextNull}
	for name, t := range db.tables {
		nt := New(t.arity)
		nt.Grow(t.Len())
		for _, r := range t.rows {
			nr := make(Row, len(r))
			for i, v := range r {
				if v.IsNull() {
					if c, ok := valuation[v.NullID()]; ok {
						nr[i] = c
						continue
					}
				}
				nr[i] = v
			}
			nt.Append(nr)
		}
		out.tables[name] = nt
	}
	return out
}
