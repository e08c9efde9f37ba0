package persist

// fsck.go — offline integrity checking of a data directory. Fsck never
// writes: it walks the manifest, every referenced segment, and the WAL,
// verifying each checksum and every cross-reference, and reports each
// problem with file and offset so an operator can see exactly which
// bytes stopped being trustworthy. A torn WAL tail is reported as
// recoverable (Open truncates it); everything else is damage Open will
// refuse to load.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"certsql/internal/schema"
	"certsql/internal/table"
)

// Finding is one problem fsck found.
type Finding struct {
	// File is the offending file's path relative to the data dir (or
	// "" for directory-level problems).
	File string
	// Offset is the byte offset of the first untrusted byte, or -1
	// when the problem is not positional.
	Offset int64
	Detail string
	// Recoverable marks damage Open repairs on its own (today: a torn
	// WAL tail, the signature of a crash mid-append).
	Recoverable bool
}

func (f Finding) String() string {
	where := f.File
	if where == "" {
		where = "."
	}
	if f.Offset >= 0 {
		where = fmt.Sprintf("%s:%d", where, f.Offset)
	}
	kind := "error"
	if f.Recoverable {
		kind = "recoverable"
	}
	return fmt.Sprintf("%s: %s: %s", where, kind, f.Detail)
}

// Report is the result of one Fsck run.
type Report struct {
	Dir string
	// Version is the version recovery would land on (checkpoint + WAL
	// records), when determinable.
	Version uint64
	// Checkpoint is the manifest's checkpoint version.
	Checkpoint uint64
	// WALRecords counts the verified WAL records.
	WALRecords int
	// Tables and Rows count the relations and rows verified.
	Tables, Rows int
	// Orphans lists unreferenced seg-*/wal-*/*.tmp files — leaked disk,
	// not damage (Open sweeps them).
	Orphans []string
	// Findings lists every problem, in discovery order.
	Findings []Finding
}

// Clean reports whether the directory has no findings at all.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Healthy reports whether Open would succeed: no findings beyond
// recoverable ones.
func (r *Report) Healthy() bool {
	for _, f := range r.Findings {
		if !f.Recoverable {
			return false
		}
	}
	return true
}

// Fsck verifies the data directory and reports every problem it can
// find. It returns an error only when the directory itself cannot be
// examined; in-file damage is reported in the Report, not as an error.
func Fsck(dir string) (*Report, error) {
	r := &Report{Dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	referenced := map[string]bool{manifestName: true}

	// Manifest.
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		r.Findings = append(r.Findings, Finding{File: manifestName, Offset: -1,
			Detail: fmt.Sprintf("cannot read manifest: %v", err)})
		r.noteOrphans(entries, referenced)
		return r, nil
	}
	m, err := decodeManifest(data)
	if err != nil {
		r.Findings = append(r.Findings, Finding{File: manifestName, Offset: -1, Detail: err.Error()})
		r.noteOrphans(entries, referenced)
		return r, nil
	}
	r.Checkpoint = m.Version
	r.Version = m.Version

	// Schema.
	sch, err := schema.ParseDDL(m.SchemaDDL)
	if err != nil {
		r.Findings = append(r.Findings, Finding{File: manifestName, Offset: -1,
			Detail: fmt.Sprintf("manifest schema does not parse: %v", err)})
	}

	// Segments: full read, checksum verification, and (when the schema
	// parsed) kind-vs-schema validation of every row via a scratch
	// database.
	var db *table.Database
	if sch != nil {
		db = table.NewDatabase(sch)
	}
	for _, seg := range m.Segments {
		referenced[seg.File] = true
		path := filepath.Join(dir, seg.File)
		sd, err := readSegment(path)
		if err != nil {
			r.Findings = append(r.Findings, Finding{File: seg.File, Offset: -1,
				Detail: strings.TrimPrefix(err.Error(), "persist: "+path+": ")})
			continue
		}
		if !strings.EqualFold(sd.Rel, seg.Table) {
			r.Findings = append(r.Findings, Finding{File: seg.File, Offset: -1,
				Detail: fmt.Sprintf("segment holds relation %q, manifest expects %q", sd.Rel, seg.Table)})
			continue
		}
		if len(sd.Rows) != seg.Rows {
			r.Findings = append(r.Findings, Finding{File: seg.File, Offset: -1,
				Detail: fmt.Sprintf("segment holds %d rows, manifest expects %d", len(sd.Rows), seg.Rows)})
			continue
		}
		r.Tables++
		r.Rows += len(sd.Rows)
		if db == nil {
			continue
		}
		// As recovery does: the decoded rows are loaded, not copied.
		if err := db.Load(seg.Table, sd.Rows); err != nil {
			r.Findings = append(r.Findings, Finding{File: seg.File, Offset: -1,
				Detail: fmt.Sprintf("segment does not conform to the schema: %v", err)})
		}
	}
	if db != nil {
		db.SetNextNullMark(m.NextNull)
	}

	// WAL: frame verification, record decoding, version continuity,
	// and (when the catalog rebuilt) replayability of every op.
	referenced[m.WAL] = true
	walPath := filepath.Join(dir, m.WAL)
	if _, err := os.Stat(walPath); err != nil {
		r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: -1,
			Detail: fmt.Sprintf("manifest references a missing WAL: %v", err)})
	} else if scan, err := scanWAL(walPath); err != nil {
		r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: -1, Detail: err.Error()})
	} else {
		version := m.Version
		for i, rec := range scan.Records {
			if rec.Version != version+1 {
				r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: rec.Off,
					Detail: fmt.Sprintf("record %d publishes version %d, want %d", i, rec.Version, version+1)})
				break
			}
			if db != nil {
				if err := applyOps(db, rec.Ops); err != nil {
					r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: rec.Off,
						Detail: fmt.Sprintf("record %d does not replay: %v", i, err)})
					break
				}
				db.SetNextNullMark(rec.NextNull)
			}
			version = rec.Version
			r.WALRecords++
		}
		r.Version = version
		if scan.Problem != nil {
			r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: scan.Problem.Offset,
				Detail: scan.Problem.Detail, Recoverable: scan.Problem.Kind == frameTorn})
		}
	}

	r.noteOrphans(entries, referenced)
	return r, nil
}

// noteOrphans records unreferenced persistence files.
func (r *Report) noteOrphans(entries []os.DirEntry, referenced map[string]bool) {
	for _, e := range entries {
		name := e.Name()
		if referenced[name] {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "wal-") {
			r.Orphans = append(r.Orphans, name)
		}
	}
}
