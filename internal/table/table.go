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
	"unsafe"

	"certsql/internal/schema"
	"certsql/internal/value"
)

// Row is one tuple. Rows are never mutated after insertion.
type Row = []value.Value

// Slab sizes, in values. A Packer's first slab is small, because the
// brute-force oracle builds thousands of tiny databases; each later one
// doubles the last, up to maxSlabValues (2 MiB of 32-byte values).
const (
	firstSlabValues = 64
	maxSlabValues   = 1 << 16
)

// Packer copies rows into slabs it owns, each row's values directly
// after the previous row's, so rows packed one after another are read
// in memory order. A packer only ever writes past the rows it has
// handed out, and no two packers share a slab. The zero value is ready
// to use.
type Packer struct{ slab []value.Value }

// Grow makes room for n more values in the current slab, starting a
// slab of exactly that room when there is not enough.
func (p *Packer) Grow(n int) {
	if cap(p.slab)-len(p.slab) < n {
		p.slab = make([]value.Value, 0, n)
	}
}

// Pack returns a copy of r in the packer's current slab, its capacity
// clipped to its length, so appending to it reallocates.
func (p *Packer) Pack(r Row) Row {
	if len(r) == 0 {
		return Row{}
	}
	if cap(p.slab)-len(p.slab) < len(r) {
		p.Grow(max(min(max(2*cap(p.slab), firstSlabValues), maxSlabValues), len(r)))
	}
	start := len(p.slab)
	p.slab = append(p.slab, r...)
	return p.slab[start:len(p.slab):len(p.slab)]
}

// genCounter mints globally unique table generations. Every mutation of
// any table assigns a fresh generation, so two tables with the same
// generation are guaranteed to hold identical rows — the property the
// null lists (NullRows) and column copies (Column) key on. Clone
// deliberately copies the generation: a clone has the same content, so
// sharing them across copy-on-write publishes is sound.
var genCounter atomic.Uint64

// Table is a bag of rows of a fixed arity. A stored relation's values
// live in slabs the table owns, in row-position order: Append copies
// each row after the previous one's values, so a scan reads memory in
// order instead of touching one heap object per row.
type Table struct {
	arity   int
	gen     uint64
	base    uint64 // the generation of the last change that was not an append
	rows    []Row
	pack    Packer                  // where Append and SetRow copy rows
	derived atomic.Pointer[derived] // see NullRows and Column
}

// derived is what NullRows and Column derive from generation gen's
// rows, per column, each part built on first use and shared by
// goroutines and clones. A later generation with the same base only
// appended rows, so it starts from these column copies.
type derived struct {
	gen, base uint64
	nulls     []atomic.Pointer[nullList]
	cols      []atomic.Pointer[column]
}

type nullList struct {
	rows []Row
	pos  []int
}

// column is a copy of one column. claimed, shared by every copy held
// in the same array, is how far into it some copy has written: a copy
// is extended in place only by whoever claims the room after it first,
// the way append extends a slice no one else appends to.
type column struct {
	vals    []value.Value
	claimed *atomic.Int64
}

// New returns an empty table of the given arity.
func New(arity int) *Table {
	g := genCounter.Add(1)
	return &Table{arity: arity, gen: g, base: g}
}

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
	t := New(arity)
	t.rows = slices.Clip(rows)
	return t
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
// so caches of content-derived artifacts can key on (relation name,
// generation).
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
	l := t.current()
	c := l.nulls[col].Load()
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
		l.nulls[col].Store(c)
	}
	return c.rows, c.pos
}

// Column returns column col of t's rows as a dense copy, position for
// position; callers must not mutate it. Like the null lists it is built
// on first use per generation and shared by goroutines and clones, and
// a generation that only appended rows extends its predecessor's copy.
func (t *Table) Column(col int) []value.Value {
	d := t.current()
	c := d.cols[col].Load()
	if c != nil && len(c.vals) == len(t.rows) {
		return c.vals
	}
	fresh := c.extend(t.rows, col)
	if !d.cols[col].CompareAndSwap(c, fresh) {
		fresh = d.cols[col].Load() // a concurrent first use won; share its copy
	}
	return fresh.vals
}

// current returns the derived data of t's generation, started on first
// use: empty, but after appends alone with the previous one's copies.
func (t *Table) current() *derived {
	d := t.derived.Load()
	if d != nil && d.gen == t.gen {
		return d
	}
	fresh := &derived{gen: t.gen, base: t.base,
		nulls: make([]atomic.Pointer[nullList], t.arity), cols: make([]atomic.Pointer[column], t.arity)}
	if d != nil && d.base == t.base { // appends alone since d: its copies are a prefix
		for i := range fresh.cols {
			fresh.cols[i].Store(d.cols[i].Load())
		}
	}
	if !t.derived.CompareAndSwap(d, fresh) {
		fresh = t.derived.Load() // a concurrent first use won; share its data
	}
	return fresh
}

// extend returns a copy of column col of rows, of which c (nil for
// none) copies a prefix: in c's array if c's room is claimed here, else
// in a new one that append grows.
func (c *column) extend(rows []Row, col int) *column {
	claimed := c != nil && cap(c.vals) >= len(rows) &&
		c.claimed.CompareAndSwap(int64(len(c.vals)), int64(len(rows)))
	out := &column{claimed: new(atomic.Int64)}
	switch {
	case claimed:
		out.vals, out.claimed = c.vals, c.claimed
	case c != nil:
		out.vals = slices.Clip(c.vals) // the room after it is another copy's
	default:
		out.vals = make([]value.Value, 0, len(rows))
	}
	for _, r := range rows[len(out.vals):] {
		out.vals = append(out.vals, r[col])
	}
	if !claimed {
		out.claimed.Store(int64(len(out.vals)))
	}
	return out
}

// Append adds a copy of r, packed after the last row appended, and
// returns the copy; the caller may reuse r. It panics on arity mismatch
// — a programming error.
func (t *Table) Append(r Row) Row {
	if len(r) != t.arity {
		panic(fmt.Sprintf("table: appending row of arity %d to table of arity %d", len(r), t.arity))
	}
	c := t.pack.Pack(r)
	t.rows = append(t.rows, c)
	t.gen = genCounter.Add(1)
	return c
}

// SetRow replaces the i-th row with a copy of r, packed after the last
// row appended or set, and returns the copy. It panics on arity
// mismatch. Replacing (rather than mutating) rows keeps clones of the
// table independent: Clone copies the row-pointer slice, so replacement
// is not visible through other clones while in-place mutation would be.
func (t *Table) SetRow(i int, r Row) Row {
	if len(r) != t.arity {
		panic(fmt.Sprintf("table: setting row of arity %d in table of arity %d", len(r), t.arity))
	}
	c := t.pack.Pack(r)
	t.rows[i] = c
	t.gen = genCounter.Add(1)
	t.base = t.gen
	return c
}

// rewrite returns a new table holding a copy of each of t's rows, in
// position order and packed into one slab, after edit has changed the
// copy in place, and the positions of the rows edit reports it changed.
// edit sees each copy before anyone else does.
func (t *Table) rewrite(edit func(r Row) bool) (nt *Table, changed []int) {
	nt = New(t.arity)
	nt.Grow(len(t.rows))
	for i, r := range t.rows {
		c := nt.pack.Pack(r)
		if edit(c) {
			changed = append(changed, i)
		}
		nt.rows = append(nt.rows, c)
	}
	return nt, changed
}

// Value and row-header sizes used by EstimatedBytes: a value.Value's
// own size, and a slice header per row. String payloads are not counted
// — the estimate is deliberately coarse and monotone in row count and
// arity.
const (
	valueBytes     = int64(unsafe.Sizeof(value.Value{}))
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

// Grow pre-allocates capacity for n additional rows and their values,
// the values in one slab.
func (t *Table) Grow(n int) {
	t.rows = slices.Grow(t.rows, n)
	t.pack.Grow(n * t.arity)
}

// Distinct returns a new table with duplicate rows removed (set
// semantics). Duplicate detection uses the canonical row key, so marked
// nulls are distinct unless their marks coincide. The result shares
// t's rows.
func (t *Table) Distinct() *Table {
	var rows []Row
	seen := make(map[string]struct{}, len(t.rows))
	for _, r := range t.rows {
		k := value.RowKey(r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		rows = append(rows, r)
	}
	return FromRows(t.arity, rows)
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

// check validates r as a row of the named relation: its arity, its
// values' kinds, and no null in a NOT NULL attribute (reported as a
// *NotNullViolation).
func (db *Database) check(name string, r Row) (*schema.Relation, error) {
	rel, ok := db.Schema.Relation(name)
	if !ok {
		return nil, fmt.Errorf("table: unknown relation %q", name)
	}
	if len(r) != rel.Arity() {
		return nil, fmt.Errorf("table: relation %q: row arity %d, want %d", name, len(r), rel.Arity())
	}
	for i, v := range r {
		if v.IsNull() {
			continue
		}
		want := rel.Attrs[i].Type
		if v.Kind() != want && !(numericKind(v.Kind()) && numericKind(want)) {
			return nil, fmt.Errorf("table: relation %q attribute %q: value %s has kind %s, want %s",
				name, rel.Attrs[i].Name, v, v.Kind(), want)
		}
	}
	return rel, nonNullCheck(rel, r)
}

// Insert appends a copy of r to the named relation, validating arity
// and column types; the caller may reuse r. A null in a NOT NULL
// attribute is rejected with a *NotNullViolation.
func (db *Database) Insert(name string, r Row) error {
	if _, err := db.check(name, r); err != nil {
		return err
	}
	c := db.tables[strings.ToLower(name)].Append(r)
	if db.recorder != nil {
		db.recorder(Op{Kind: OpInsert, Table: strings.ToLower(name), Row: c})
	}
	return nil
}

// Load appends rows to the named relation, each checked as Insert
// checks it, and takes them as its storage instead of copying them: a
// loader that already holds its rows packed in position order (with a
// Packer, say) hands them over whole. The caller must not change rows
// or their values afterwards. On an error, which names the first row
// that fails, nothing is appended.
func (db *Database) Load(name string, rows []Row) error {
	t, err := db.Table(name)
	if err != nil {
		return err
	}
	for i, r := range rows {
		if _, err := db.check(name, r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	if t.Len() == 0 {
		t.rows = slices.Clip(rows)
	} else {
		t.rows = append(t.rows, rows...)
	}
	t.gen = genCounter.Add(1)
	if db.recorder != nil {
		for _, r := range rows {
			db.recorder(Op{Kind: OpInsert, Table: strings.ToLower(name), Row: r})
		}
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
	c := t.SetRow(i, r)
	if db.recorder != nil {
		db.recorder(Op{Kind: OpReplace, Table: strings.ToLower(name), Index: i, Row: c})
	}
	return nil
}

// Rewrite rebuilds the named relation in one ordered pass: each row is
// copied, in position order, into one new slab, and edit may change the
// copy in place, reporting whether it did. A changed row is checked and
// recorded as ReplaceRow would check and record it; on an error the
// relation is left as it was. Bulk mutators (null injection) use this
// instead of one ReplaceRow per row, which would move every replaced
// row out of position order.
func (db *Database) Rewrite(name string, edit func(r Row) bool) error {
	rel, ok := db.Schema.Relation(name)
	if !ok {
		return fmt.Errorf("table: unknown relation %q", name)
	}
	key := strings.ToLower(name)
	nt, changed := db.tables[key].rewrite(edit)
	for _, i := range changed {
		if err := nonNullCheck(rel, nt.rows[i]); err != nil {
			return err
		}
	}
	db.tables[key] = nt
	if db.recorder != nil {
		for _, i := range changed {
			db.recorder(Op{Kind: OpReplace, Table: key, Index: i, Row: nt.rows[i]})
		}
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
		nt := New(t.arity) // no slab: the clone packs its own appends
		nt.rows = append(nt.rows, t.rows...)
		nt.gen, nt.base = t.gen, t.base // same content ⇒ same generation (see genCounter)
		nt.derived.Store(t.derived.Load())
		out.tables[name] = nt
	}
	return out
}

// Apply returns the complete database v(D) obtained by replacing every
// null ⊥ᵢ with valuation[i]. Marks missing from the valuation map are
// left untouched (callers building full valuations must cover all marks).
// Each table is rebuilt in one ordered pass into one slab.
func (db *Database) Apply(valuation map[int64]value.Value) *Database {
	out := &Database{Schema: db.Schema, tables: map[string]*Table{}, nextNull: db.nextNull}
	apply := func(r Row) bool {
		for i, v := range r {
			if v.IsNull() {
				if c, ok := valuation[v.NullID()]; ok {
					r[i] = c
				}
			}
		}
		return false
	}
	for name, t := range db.tables {
		out.tables[name], _ = t.rewrite(apply)
	}
	return out
}
