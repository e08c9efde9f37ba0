package persist

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// nullKeyRow is a nation row whose n_nationkey, declared NOT NULL, holds
// a null.
func nullKeyRow(db *table.Database) table.Row {
	row := append(table.Row{}, db.MustTable("nation").Row(0)...)
	row[0] = value.Null(db.NextNullMark())
	return row
}

// refusesNullKey asserts that reopening dir fails with a NOT NULL
// violation naming nation.n_nationkey.
func refusesNullKey(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, noSeed(t), Options{})
	if err == nil {
		s.Close()
		t.Fatal("reopen loaded a null stored in a NOT NULL column")
	}
	var nv *table.NotNullViolation
	if !errors.As(err, &nv) {
		t.Fatalf("reopen: got %v, want a *table.NotNullViolation", err)
	}
	if !strings.Contains(err.Error(), `"nation"`) || !strings.Contains(err.Error(), `"n_nationkey"`) {
		t.Fatalf("error does not name nation.n_nationkey: %v", err)
	}
}

// TestRecoveryRefusesNullInNotNullSegment: a checkpoint segment holding
// a null in a NOT NULL column, as a store that did not enforce the
// declaration could have written, fails recovery.
func TestRecoveryRefusesNullInNotNullSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.Snapshot().DB
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := db.MustTable("nation")
	tab := table.New(src.Arity())
	tab.Append(nullKeyRow(db))
	for _, row := range src.Rows()[1:] {
		tab.Append(row)
	}
	for _, seg := range m.Segments {
		if seg.Table != "nation" {
			continue
		}
		if _, err := writeSegment(dir, seg.File, seg.Table, tab, func(guard.Site) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	refusesNullKey(t, dir)
}

// TestRecoveryRefusesNullInNotNullWALRecord: a WAL record inserting a
// null into a NOT NULL column fails replay; no part of it is loaded.
func TestRecoveryRefusesNullInNotNullWALRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := Open(dir, tinySeed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db := s.Snapshot().DB
	ops := []table.Op{
		{Kind: table.OpInsert, Table: "nation", Row: db.MustTable("nation").Row(0)},
		{Kind: table.OpInsert, Table: "nation", Row: nullKeyRow(db)},
	}
	s.mu.Lock()
	err = s.appendRecord(s.Version()+1, db.NextNullMark()+1, ops)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	refusesNullKey(t, dir)
}
