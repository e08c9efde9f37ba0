package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// appendWALFrames appends the framed records to dir's published WAL in
// one write.
func appendWALFrames(t *testing.T, dir string, records ...[]byte) {
	t.Helper()
	var buf []byte
	for _, rec := range records {
		buf = appendFrame(buf, rec)
	}
	f, err := os.OpenFile(currentWAL(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsckAgreesWithOpen plants one kind of damage per case in a data
// directory and checks that fsck's verdict is what Open does: the
// report is healthy exactly when Open succeeds, and a refusal names the
// file of the first unrecoverable finding.
func TestFsckAgreesWithOpen(t *testing.T) {
	noHit := func(guard.Site) error { return nil }
	segmentOf := func(t *testing.T, dir, rel string) manifestSegment {
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		big := m.Segments[0]
		for _, seg := range m.Segments {
			if seg.Table == rel {
				return seg
			}
			if seg.Bytes > big.Bytes {
				big = seg
			}
		}
		return big // rel "" asks for the largest segment
	}
	walSize := func(t *testing.T, dir string) int64 {
		info, err := os.Stat(currentWAL(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	removeManifest := func(t *testing.T, dir string) {
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name    string
		plant   func(t *testing.T, dir string)
		healthy bool
		fresh   bool // Open seeds a fresh catalog
	}{
		{"manifest byte", func(t *testing.T, dir string) {
			path := filepath.Join(dir, manifestName)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, path, info.Size()/2)
		}, false, false},
		{"segment header byte", func(t *testing.T, dir string) {
			// Past the magic, the header frame's length and checksum.
			flipByte(t, filepath.Join(dir, segmentOf(t, dir, "region").File), 10)
		}, false, false},
		{"segment block byte", func(t *testing.T, dir string) {
			seg := segmentOf(t, dir, "")
			flipByte(t, filepath.Join(dir, seg.File), seg.Bytes/2)
		}, false, false},
		{"non-conforming segment row", func(t *testing.T, dir string) {
			seg := segmentOf(t, dir, "region")
			sd, err := readSegment(filepath.Join(dir, seg.File))
			if err != nil {
				t.Fatal(err)
			}
			sd.Rows[1][0] = value.Str("one")
			if _, err := writeSegment(dir, seg.File, sd.Rel, table.FromRows(sd.Arity, sd.Rows), noHit, new([]byte)); err != nil {
				t.Fatal(err)
			}
		}, false, false},
		{"interior WAL byte", func(t *testing.T, dir string) {
			flipByte(t, currentWAL(t, dir), 4+(walSize(t, dir)-4)/2)
		}, false, false},
		{"WAL torn inside its last record", func(t *testing.T, dir string) {
			if err := os.Truncate(currentWAL(t, dir), walSize(t, dir)-3); err != nil {
				t.Fatal(err)
			}
		}, true, false},
		{"deleted WAL", func(t *testing.T, dir string) {
			if err := os.Remove(currentWAL(t, dir)); err != nil {
				t.Fatal(err)
			}
		}, false, false},
		{"WAL record skipping a version", func(t *testing.T, dir string) {
			// The directory holds versions 1 to 4; the next record must
			// publish 5.
			appendWALFrames(t, dir, encodeWALRecord(nil, 6, 0, nil))
		}, false, false},
		{"no manifest, WAL with records", removeManifest, false, false},
		{"no manifest, first checkpoint crashed", func(t *testing.T, dir string) {
			// A store opened and closed with no update leaves version 1's
			// segments and an empty WAL; before the rename, its manifest
			// was MANIFEST.tmp.
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, tinySeed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(filepath.Join(dir, manifestName), filepath.Join(dir, manifestName+".tmp")); err != nil {
				t.Fatal(err)
			}
		}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := openStoreWithUpdates(t)
			tc.plant(t, dir)
			report, err := Fsck(dir) // before Open, which repairs a torn tail
			if err != nil {
				t.Fatal(err)
			}
			if report.Healthy() != tc.healthy {
				t.Fatalf("fsck healthy = %v, want %v: %+v", report.Healthy(), tc.healthy, report.Findings)
			}
			files := dirFiles(t, dir)
			seed := noSeed(t)
			if tc.fresh {
				seed = tinySeed
			}
			s, err := Open(dir, seed, Options{})
			if report.Healthy() {
				if err != nil {
					t.Fatalf("fsck calls the directory healthy, Open refuses it: %v", err)
				}
				s.Close()
				return
			}
			if after := dirFiles(t, dir); after != files {
				t.Errorf("Open refused the directory but changed its files:\n%s\nbecame\n%s", files, after)
			}
			if err == nil {
				s.Close()
				t.Fatalf("fsck calls the directory damaged, Open accepts it: %+v", report.Findings)
			}
			for _, f := range report.Findings {
				if f.Recoverable {
					continue
				}
				if !strings.Contains(err.Error(), filepath.Join(dir, f.File)) {
					t.Fatalf("Open's refusal does not name %s, the file of the first finding %s: %v", f.File, f, err)
				}
				return
			}
		})
	}
}

// dirFiles lists dir's files with their sizes.
func dirFiles(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
	}
	return b.String()
}

// TestWALReplayAllocs: replay decodes each record into one reused
// buffer and the table copies its rows into its slab, so recovering
// 1 000 single-row inserts past the checkpoint costs well under one
// allocation per record more than recovering the checkpoint alone.
func TestWALReplayAllocs(t *testing.T) {
	sch, err := schema.ParseDDL("CREATE TABLE t (a INT NOT NULL, b INT);")
	if err != nil {
		t.Fatal(err)
	}
	create := func(records int) string {
		dir := filepath.Join(t.TempDir(), "data")
		s, err := Open(dir, func() (*table.Database, error) { return table.NewDatabase(sch), nil }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nextNull := s.Snapshot().DB.NextNullMark()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		frames := make([][]byte, records)
		for i := range frames {
			row := table.Row{value.Int(int64(i)), value.Int(int64(i % 7))}
			frames[i] = encodeWALRecord(nil, uint64(i+2), nextNull, []table.Op{{Kind: table.OpInsert, Table: "t", Row: row}})
		}
		appendWALFrames(t, dir, frames...)
		return dir
	}
	recoverAllocs := func(dir string) float64 {
		return testing.AllocsPerRun(3, func() {
			s, err := Open(dir, noSeed(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
	}
	const records = 1000
	full := create(records)
	s, err := Open(full, noSeed(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().DB.MustTable("t").Len(); got != records {
		t.Fatalf("recovered %d rows, want %d", got, records)
	}
	s.Close()
	perRecord := (recoverAllocs(full) - recoverAllocs(create(0))) / records
	t.Logf("%.3f allocations per record", perRecord)
	if perRecord > 0.25 {
		t.Fatalf("WAL replay allocates %.2f times per single-row record, want at most 0.25", perRecord)
	}
}
