package persist

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/qgen"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// tinyConfig is a TPC-H instance small enough for unit tests but with
// every relation populated and nulls injected.
var tinyConfig = tpch.Config{ScaleFactor: 0.0001, Seed: 7, NullRate: 0.05}

func tinySeed() (*table.Database, error) { return tpch.Generate(tinyConfig), nil }

// noSeed is a seed function that must not be called: the test expects
// recovery, not re-seeding.
func noSeed(t *testing.T) func() (*table.Database, error) {
	return func() (*table.Database, error) {
		t.Fatal("seed called: recovery path was expected")
		return nil, nil
	}
}

// sameDatabases asserts got holds byte-identical tables (row order,
// values, null marks) and the same fresh-null counter as want.
func sameDatabases(t *testing.T, want, got *table.Database) {
	t.Helper()
	for _, name := range want.Schema.Names() {
		w, g := want.MustTable(name), got.MustTable(name)
		if w.Len() != g.Len() {
			t.Fatalf("relation %q: %d rows, want %d", name, g.Len(), w.Len())
		}
		for i, row := range w.Rows() {
			if value.RowKey(row) != value.RowKey(g.Row(i)) {
				t.Fatalf("relation %q row %d: %v, want %v", name, i, g.Row(i), row)
			}
		}
	}
	if w, g := want.NextNullMark(), got.NextNullMark(); w != g {
		t.Fatalf("next null mark %d, want %d", g, w)
	}
}

// insertDup duplicates the relation's first row (bags allow it).
func insertDup(rel string) func(db *table.Database) error {
	return func(db *table.Database) error {
		return db.Insert(rel, db.MustTable(rel).Row(0))
	}
}

// replaceWithNull replaces row 0 of the first relation with a nullable
// attribute, putting a fresh null in that attribute — exercises both
// OpReplace and the fresh-null counter in the WAL.
func replaceWithNull() func(db *table.Database) error {
	return func(db *table.Database) error {
		for _, name := range db.Schema.Names() {
			rel, _ := db.Schema.Relation(name)
			for col, a := range rel.Attrs {
				if !a.Nullable || db.MustTable(name).Len() == 0 {
					continue
				}
				row := append(table.Row{}, db.MustTable(name).Row(0)...)
				row[col] = db.FreshNull()
				return db.ReplaceRow(name, 0, row)
			}
		}
		return fmt.Errorf("no nullable attribute found")
	}
}

func TestStoreFreshOpenReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Version(); v != 1 {
		t.Fatalf("fresh store at version %d, want 1", v)
	}
	muts := []func(db *table.Database) error{
		insertDup("region"), replaceWithNull(), insertDup("nation"),
		insertDup("lineitem"), replaceWithNull(),
	}
	for i, m := range muts {
		v, err := s.Update(m)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if want := uint64(i) + 2; v != want {
			t.Fatalf("update %d published version %d, want %d", i, v, want)
		}
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update(insertDup("region")); err == nil {
		t.Fatal("update after Close succeeded")
	}

	r, err := Open(dir, noSeed(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.Version(); v != want.Version {
		t.Fatalf("recovered to version %d, want %d", v, want.Version)
	}
	sameDatabases(t, want.DB, r.Snapshot().DB)
	if v, err := r.Update(insertDup("customer")); err != nil || v != want.Version+1 {
		t.Fatalf("post-recovery update: version %d, err %v", v, err)
	}
}

func TestStorePublishWholesale(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := tpch.Generate(tpch.Config{ScaleFactor: 0.0001, Seed: 99, NullRate: 0.1})
	v, err := s.Publish(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("published version %d, want 2", v)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, noSeed(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != 2 {
		t.Fatalf("recovered to version %d, want 2", r.Version())
	}
	sameDatabases(t, fresh, r.Snapshot().DB)
}

func TestCheckpointRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Update(insertDup("region")); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Updates publish versions 2..6; checkpoints fire after the 2nd and
	// 4th record, so the last checkpoint is at version 5 with one
	// record in its WAL.
	if m.Version != 5 {
		t.Fatalf("checkpoint at version %d, want 5", m.Version)
	}
	// The initial checkpoint's files must have been retired.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-0000000000000001") || e.Name() == "wal-0000000000000001.log" {
			t.Fatalf("stale checkpoint file %s survived rotation", e.Name())
		}
	}
	r, err := Open(dir, noSeed(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != want.Version {
		t.Fatalf("recovered to version %d, want %d", r.Version(), want.Version)
	}
	sameDatabases(t, want.DB, r.Snapshot().DB)
}

// currentWAL returns the published WAL's path.
func currentWAL(t *testing.T, dir string) string {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, m.WAL)
}

func TestTornWALTailTruncated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Update(insertDup("region")); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a length prefix promising 64 bytes
	// with only 3 present.
	wal := currentWAL(t, dir)
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{64, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var logs []string
	r, err := Open(dir, noSeed(t), Options{Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != want.Version {
		t.Fatalf("recovered to version %d, want %d", r.Version(), want.Version)
	}
	sameDatabases(t, want.DB, r.Snapshot().DB)
	found := false
	for _, l := range logs {
		found = found || strings.Contains(l, "truncating torn WAL tail")
	}
	if !found {
		t.Fatalf("no truncation log line; logs: %q", logs)
	}
	if _, err := r.Update(insertDup("nation")); err != nil {
		t.Fatalf("post-truncation update: %v", err)
	}
}

// flipByte flips one byte of the file at the given offset.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// openStoreWithUpdates builds a store with a few WAL records and
// returns its dir.
func openStoreWithUpdates(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Update(insertDup("region")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCorruptWALInteriorRefused(t *testing.T) {
	dir := openStoreWithUpdates(t)
	wal := currentWAL(t, dir)
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, wal, 4+(info.Size()-4)/2) // inside some record, past the magic

	_, err = Open(dir, noSeed(t), Options{})
	if err == nil || !strings.Contains(err.Error(), "fsck") {
		t.Fatalf("open on corrupt WAL: err = %v, want refusal pointing at fsck", err)
	}
	report, ferr := Fsck(dir)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if report.Healthy() {
		t.Fatalf("fsck calls a corrupt WAL healthy: %+v", report)
	}
	found := false
	for _, f := range report.Findings {
		found = found || (strings.HasPrefix(f.File, "wal-") && !f.Recoverable)
	}
	if !found {
		t.Fatalf("fsck findings miss the WAL corruption: %+v", report.Findings)
	}
}

func TestCorruptSegmentRefused(t *testing.T) {
	dir := openStoreWithUpdates(t)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := m.Segments[len(m.Segments)/2]
	flipByte(t, filepath.Join(dir, seg.File), seg.Bytes/2)

	if _, err := Open(dir, noSeed(t), Options{}); err == nil {
		t.Fatal("open on corrupt segment succeeded")
	}
	report, ferr := Fsck(dir)
	if ferr != nil {
		t.Fatal(ferr)
	}
	found := false
	for _, f := range report.Findings {
		found = found || (f.File == seg.File && !f.Recoverable)
	}
	if !found {
		t.Fatalf("fsck findings miss the corrupt segment %s: %+v", seg.File, report.Findings)
	}
}

// TestFsckReportsNonConformingRow: a segment whose checksums hold but
// one of whose rows does not fit the schema — a string in an integer
// column — is refused by recovery and reported by fsck, by the index of
// that row, against that segment.
func TestFsckReportsNonConformingRow(t *testing.T) {
	dir := openStoreWithUpdates(t)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range m.Segments {
		if seg.Table != "region" {
			continue
		}
		path := filepath.Join(dir, seg.File)
		sd, err := readSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		const bad = 2
		sd.Rows[bad][0] = value.Str("two")
		var buf []byte
		if _, err := writeSegment(dir, seg.File, sd.Rel, table.FromRows(sd.Arity, sd.Rows),
			func(guard.Site) error { return nil }, &buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, noSeed(t), Options{}); err == nil || !strings.Contains(err.Error(), "does not conform") {
			t.Fatalf("open on a non-conforming segment: err = %v", err)
		}
		report, err := Fsck(dir)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range report.Findings {
			found = found || f.File == seg.File && strings.Contains(f.Detail, fmt.Sprintf("row %d: ", bad))
		}
		if !found {
			t.Fatalf("fsck does not report row %d of %s: %+v", bad, seg.File, report.Findings)
		}
		return
	}
	t.Fatal("no region segment")
}

func TestCorruptManifestRefused(t *testing.T) {
	dir := openStoreWithUpdates(t)
	path := filepath.Join(dir, manifestName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, info.Size()/2)

	if _, err := Open(dir, noSeed(t), Options{}); err == nil {
		t.Fatal("open on corrupt manifest succeeded")
	}
	report, ferr := Fsck(dir)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if report.Healthy() || len(report.Findings) == 0 || report.Findings[0].File != manifestName {
		t.Fatalf("fsck misses the manifest corruption: %+v", report)
	}
}

func TestFsckCleanAndOrphans(t *testing.T) {
	dir := openStoreWithUpdates(t)
	report, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("healthy dir has findings: %+v", report.Findings)
	}
	if report.Version != 4 || report.Checkpoint != 1 || report.WALRecords != 3 {
		t.Fatalf("report = version %d checkpoint %d records %d, want 4/1/3",
			report.Version, report.Checkpoint, report.WALRecords)
	}
	if report.Tables == 0 || report.Rows == 0 {
		t.Fatalf("report verified %d tables / %d rows", report.Tables, report.Rows)
	}

	// Unreferenced persistence files are orphans, not damage.
	for _, name := range []string{"seg-00000000deadbeef-x.seg", "stray.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report, err = Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || len(report.Orphans) != 2 {
		t.Fatalf("orphans misclassified: findings %+v orphans %v", report.Findings, report.Orphans)
	}

	// Open sweeps them.
	s, err := Open(dir, noSeed(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, name := range []string{"seg-00000000deadbeef-x.seg", "stray.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Fatalf("orphan %s survived Open", name)
		}
	}
}

func TestUpdateRejectsRecorderBypass(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Update(func(db *table.Database) error {
		db.MustTable("region").Append(db.MustTable("region").Row(0))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "bypassed the delta recorder") {
		t.Fatalf("bypassing mutation: err = %v, want recorder-bypass rejection", err)
	}
	if s.Version() != 1 {
		t.Fatalf("rejected update still published: version %d", s.Version())
	}
	if _, err := s.Update(insertDup("region")); err != nil {
		t.Fatalf("store unusable after rejected update: %v", err)
	}
}

// faultErr is a FaultHook returning an error at the n-th hit of a site.
type faultErr struct {
	site guard.Site
	n    int
	hits int
}

func (h *faultErr) Hit(site guard.Site) error {
	if site != h.site {
		return nil
	}
	h.hits++
	if h.hits == h.n {
		return fmt.Errorf("injected %s fault", site)
	}
	return nil
}

func TestUpdateFaultRollsBackWAL(t *testing.T) {
	cases := []struct {
		site guard.Site
		n    int
	}{
		{guard.SitePersistWALAppend, 1}, // torn half-record
		{guard.SitePersistWALAppend, 2}, // full record, unsynced
		{guard.SitePersistFsync, 1},     // sync refused
	}
	for _, c := range cases {
		n := c.n
		dir := filepath.Join(t.TempDir(), "data")
		hook := &faultErr{site: c.site, n: 99} // silent during Open
		s, err := Open(dir, tinySeed, Options{Hook: hook})
		if err != nil {
			t.Fatal(err)
		}
		hook.hits, hook.n = 0, c.n
		if _, err := s.Update(insertDup("region")); err == nil {
			t.Fatalf("n=%d: faulted update succeeded", n)
		}
		if s.Version() != 1 {
			t.Fatalf("n=%d: faulted update published version %d", n, s.Version())
		}
		hook.site = "" // disarm
		if v, err := s.Update(insertDup("region")); err != nil || v != 2 {
			t.Fatalf("n=%d: update after rollback: version %d, err %v", n, v, err)
		}
		want := s.Snapshot()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, noSeed(t), Options{})
		if err != nil {
			t.Fatalf("n=%d: reopen after rollback: %v", n, err)
		}
		sameDatabases(t, want.DB, r.Snapshot().DB)
		r.Close()
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	ops := []table.Op{
		{Kind: table.OpInsert, Table: "orders", Row: table.Row{
			value.Int(-42), value.Str("héllo ⊥ world"), value.Null(7),
			value.Float(3.25), value.Bool(true), value.Date(19000),
		}},
		{Kind: table.OpReplace, Table: "lineitem", Index: 12, Row: table.Row{
			value.Null(9223372036854775807), value.Str(""), value.Bool(false),
		}},
		{Kind: table.OpInsert, Table: "x", Row: table.Row{value.Int(0)}},
	}
	payload := encodeWALRecord(nil, 901, 1234, ops)
	rec := &walRecord{}
	if err := decodeWALRecord(payload, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Version != 901 || rec.NextNull != 1234 || len(rec.Ops) != len(ops) {
		t.Fatalf("decoded header %d/%d/%d ops", rec.Version, rec.NextNull, len(rec.Ops))
	}
	for i, op := range ops {
		got := rec.Ops[i]
		if got.Kind != op.Kind || got.Table != op.Table || got.Index != op.Index {
			t.Fatalf("op %d: %+v, want %+v", i, got, op)
		}
		if value.RowKey(got.Row) != value.RowKey(op.Row) {
			t.Fatalf("op %d row: %v, want %v", i, got.Row, op.Row)
		}
	}
}

// TestSegmentRoundTripQgen is the encode/decode property test over
// randomly generated incomplete databases: every relation of every
// generated instance must round-trip through a segment file with rows,
// row order, and marked nulls preserved exactly.
func TestSegmentRoundTripQgen(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	noHit := func(guard.Site) error { return nil }
	tn := qgen.Tuning{MaxRowsPerRelation: 40, MaxNulls: 12, MaxArity: 5, MaxRelations: 4}
	for seed := 0; seed < cases; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		sch := qgen.Schema(rng, tn)
		db := qgen.Database(rng, sch, tn)
		dir := t.TempDir()
		for _, name := range sch.Names() {
			tab := db.MustTable(name)
			if _, err := writeSegment(dir, name+".seg", name, tab, noHit, new([]byte)); err != nil {
				t.Fatalf("seed %d relation %s: write: %v", seed, name, err)
			}
			got, err := readSegment(filepath.Join(dir, name+".seg"))
			if err != nil {
				t.Fatalf("seed %d relation %s: read: %v", seed, name, err)
			}
			if got.Rel != name || got.Arity != tab.Arity() || len(got.Rows) != tab.Len() {
				t.Fatalf("seed %d relation %s: shape %s/%d/%d, want %s/%d/%d",
					seed, name, got.Rel, got.Arity, len(got.Rows), name, tab.Arity(), tab.Len())
			}
			for i, row := range tab.Rows() {
				if value.RowKey(row) != value.RowKey(got.Rows[i]) {
					t.Fatalf("seed %d relation %s row %d: %v, want %v", seed, name, i, got.Rows[i], row)
				}
			}
		}
	}
}

// TestSegmentFlipEveryByte flips every single byte of a small segment
// file in turn and asserts the reader rejects every mutation — the
// checksum layer must make single-byte damage fully detectable.
func TestSegmentFlipEveryByte(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tn := qgen.Tuning{MaxRowsPerRelation: 6}
	sch := qgen.Schema(rng, tn)
	db := qgen.Database(rng, sch, tn)
	name := sch.Names()[0]
	dir := t.TempDir()
	noHit := func(guard.Site) error { return nil }
	if _, err := writeSegment(dir, "t.seg", name, db.MustTable(name), noHit, new([]byte)); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(filepath.Join(dir, "t.seg"))
	if err != nil {
		t.Fatal(err)
	}
	mut := filepath.Join(dir, "mut.seg")
	for off := range orig {
		data := append([]byte{}, orig...)
		data[off] ^= 0xff
		if err := os.WriteFile(mut, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSegment(mut); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", off, len(orig))
		}
	}
}

func TestRenderDDLRoundTrip(t *testing.T) {
	schemas := []*schema.Schema{tpch.Schema()}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		schemas = append(schemas, qgen.Schema(rng, qgen.Tuning{}))
	}
	for i, sch := range schemas {
		ddl, err := renderDDL(sch)
		if err != nil {
			t.Fatalf("schema %d: render: %v", i, err)
		}
		back, err := schema.ParseDDL(ddl)
		if err != nil {
			t.Fatalf("schema %d: reparse: %v\n%s", i, err, ddl)
		}
		if len(back.Names()) != len(sch.Names()) {
			t.Fatalf("schema %d: %d relations, want %d", i, len(back.Names()), len(sch.Names()))
		}
		for _, name := range sch.Names() {
			orig, _ := sch.Relation(name)
			got, ok := back.Relation(name)
			if !ok {
				t.Fatalf("schema %d: relation %q lost", i, name)
			}
			if got.Arity() != orig.Arity() || len(got.Key) != len(orig.Key) {
				t.Fatalf("schema %d relation %q: arity %d key %v, want %d / %v",
					i, name, got.Arity(), got.Key, orig.Arity(), orig.Key)
			}
			for c, a := range orig.Attrs {
				b := got.Attrs[c]
				if !strings.EqualFold(a.Name, b.Name) || a.Type != b.Type || a.Nullable != b.Nullable {
					t.Fatalf("schema %d relation %q attr %d: %+v, want %+v", i, name, c, b, a)
				}
			}
			for c, k := range orig.Key {
				if got.Key[c] != k {
					t.Fatalf("schema %d relation %q: key %v, want %v", i, name, got.Key, orig.Key)
				}
			}
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &manifest{
		Format: manifestFormat, Version: 41, NextNull: 17,
		SchemaDDL: "CREATE TABLE r (a INT NOT NULL, PRIMARY KEY (a));\n",
		Segments:  []manifestSegment{{Table: "r", File: "seg-1-r.seg", Rows: 3, Bytes: 99}},
		WAL:       "wal-29.log",
	}
	data, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != m.Version || back.NextNull != m.NextNull || back.WAL != m.WAL ||
		len(back.Segments) != 1 || back.Segments[0] != m.Segments[0] {
		t.Fatalf("round trip: %+v, want %+v", back, m)
	}
	// Every single-byte flip must be rejected.
	for off := range data {
		mut := append([]byte{}, data...)
		mut[off] ^= 0xff
		if got, err := decodeManifest(mut); err == nil && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", m) {
			t.Fatalf("flipping byte %d silently changed the manifest", off)
		}
	}
}
