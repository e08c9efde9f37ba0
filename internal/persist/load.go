package persist

// load.go — the one reader of a data directory, run by recovery (Open)
// and by Fsck alike, so fsck's verdict is by construction what Open
// does.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"certsql/internal/schema"
	"certsql/internal/table"
)

// load reads the manifest and parses its schema, checks each segment
// against the manifest and loads it, and replays each WAL record as
// soon as it verifies. It returns the manifest (nil when it does not
// verify), the catalog (nil when there is no schema to build it on),
// and a Report complete but for its Orphans: every problem becomes a
// Finding that keeps its error, and the pass carries on past it
// wherever there is more to check. load never writes.
func load(dir string) (*manifest, *table.Database, *Report) {
	var db *table.Database
	r := &Report{Dir: dir}
	m, err := readManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		unpublished(dir, r)
		return nil, nil, r
	}
	if err != nil {
		r.note(manifestName, -1, err)
		return nil, nil, r
	}
	r.Checkpoint, r.Version = m.Version, m.Version
	if sch, err := schema.ParseDDL(m.SchemaDDL); err != nil {
		r.note(manifestName, -1, fmt.Errorf("manifest schema does not parse: %w", err))
	} else {
		db = table.NewDatabase(sch)
	}

	for _, seg := range m.Segments {
		sd, err := readSegment(filepath.Join(dir, seg.File))
		switch {
		case err != nil:
			r.note(seg.File, -1, err)
		case !strings.EqualFold(sd.Rel, seg.Table):
			r.note(seg.File, -1, fmt.Errorf("segment holds relation %q, manifest expects %q", sd.Rel, seg.Table))
		case len(sd.Rows) != seg.Rows:
			r.note(seg.File, -1, fmt.Errorf("segment holds %d rows, manifest expects %d", len(sd.Rows), seg.Rows))
		default:
			r.Tables++
			r.Rows += len(sd.Rows)
			if db != nil {
				if err := db.Load(seg.Table, sd.Rows); err != nil {
					r.note(seg.File, -1, fmt.Errorf("segment does not conform to the schema: %w", err))
				}
			}
		}
	}
	if db != nil {
		db.SetNextNullMark(m.NextNull)
	}

	// Replay stops at the first record that does not continue the
	// version sequence or does not apply; the scan still verifies the
	// frames after it.
	replaying := true
	scan, err := scanWAL(filepath.Join(dir, m.WAL), func(rec *walRecord) {
		if !replaying {
			return
		}
		if rec.Version != r.Version+1 {
			r.note(m.WAL, rec.Off, fmt.Errorf("record %d publishes version %d, want %d", r.WALRecords, rec.Version, r.Version+1))
			replaying = false
			return
		}
		if db != nil {
			if err := replay(db, rec); err != nil {
				r.note(m.WAL, rec.Off, fmt.Errorf("record %d does not replay: %w", r.WALRecords, err))
				replaying = false
				return
			}
		}
		r.Version = rec.Version
		r.WALRecords++
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
		r.note(m.WAL, -1, fmt.Errorf("manifest references a missing WAL: %w", err))
	case err != nil:
		r.note(m.WAL, -1, err)
	case scan.Problem != nil:
		r.Findings = append(r.Findings, Finding{File: m.WAL, Offset: scan.Problem.Offset,
			Detail: scan.Problem.Detail, Recoverable: scan.Problem.Kind == frameTorn, err: scan.Problem})
	}
	return m, db, r
}

// unpublished vets a directory with no MANIFEST. Open seeds it afresh
// only when it holds none of the store's files (seg-*, wal-*,
// MANIFEST*), or only what a first checkpoint leaves when it crashes
// before its manifest rename: version 1's segments and their temp
// files, version 1's WAL holding nothing past its header, and the
// manifest's temp file. Those are noted as one recoverable finding.
// Any other file of the store's may hold acknowledged data, which the
// fresh path's sweep would delete: the first one is noted as
// unrecoverable, so Open refuses the directory.
func unpublished(dir string, r *Report) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		r.note(manifestName, -1, err)
		return
	}
	debris := false
	firstSegs := strings.TrimSuffix(segFile(1, ""), ".seg") // every version 1 segment's name starts so
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, firstSegs), name == manifestName+".tmp":
			debris = true
		case name == walFile(1):
			info, err := e.Info()
			if err == nil && info.Size() > int64(len(walMagic)) {
				err = fmt.Errorf("WAL holds %d bytes past its header, but there is no %s", info.Size()-int64(len(walMagic)), manifestName)
			}
			if err != nil {
				r.note(name, -1, err)
				return
			}
			debris = true
		case strings.HasPrefix(name, "seg-"), strings.HasPrefix(name, "wal-"), strings.HasPrefix(name, manifestName):
			r.note(name, -1, fmt.Errorf("there is no %s, and a crashed first checkpoint leaves no such file: it may hold acknowledged data", manifestName))
			return
		}
	}
	if debris {
		r.Findings = append(r.Findings, Finding{File: manifestName, Offset: -1, Recoverable: true,
			Detail: "no manifest: what is here is a first checkpoint that crashed before publishing; open sweeps it and seeds a fresh catalog"})
	}
}

// note records an unrecoverable finding whose detail is err.
func (r *Report) note(file string, off int64, err error) {
	r.Findings = append(r.Findings, Finding{File: file, Offset: off, Detail: err.Error(), err: err})
}

// files returns the data files m references; nil for no manifest.
func (m *manifest) files() map[string]bool {
	if m == nil {
		return nil
	}
	keep := map[string]bool{m.WAL: true}
	for _, seg := range m.Segments {
		keep[seg.File] = true
	}
	return keep
}

// orphans lists dir's temp files and its seg-*/wal-* files not in keep:
// what a crash or a superseded checkpoint leaves behind.
func orphans(dir string, keep map[string]bool) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") ||
			((strings.HasPrefix(name, "seg-") || strings.HasPrefix(name, "wal-")) && !keep[name]) {
			out = append(out, name)
		}
	}
	return out, nil
}

// replay applies a decoded record to db.
func replay(db *table.Database, rec *walRecord) error {
	for i, op := range rec.Ops {
		var err error
		if op.Kind == table.OpReplace {
			err = db.ReplaceRow(op.Table, op.Index, op.Row)
		} else {
			err = db.Insert(op.Table, op.Row)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	db.SetNextNullMark(rec.NextNull)
	return nil
}
