package persist

// fsck.go — offline integrity checking of a data directory. Fsck runs
// the reader recovery runs (load.go) and reports what it found, each
// problem with file and offset so an operator can see exactly which
// bytes stopped being trustworthy. A torn WAL tail is reported as
// recoverable (Open truncates it); everything else is damage Open
// refuses, with the error of its first such finding.

import (
	"fmt"
	"path/filepath"
)

// Finding is one problem the reader found.
type Finding struct {
	// File is the offending file's path relative to the data dir.
	File string
	// Offset is the byte offset of the first untrusted byte, or -1
	// when the problem is not positional.
	Offset int64
	Detail string
	// Recoverable marks damage Open repairs on its own (today: a torn
	// WAL tail, the signature of a crash mid-append).
	Recoverable bool
	// err is the error the finding came from; Open wraps it.
	err error
}

// refusal is Open's error for an unrecoverable finding in dir: it names
// the file and wraps the finding's error.
func (f Finding) refusal(dir string) error {
	return fmt.Errorf("persist: %s: %w; run `certsql fsck %s` for a full report", filepath.Join(dir, f.File), f.err, dir)
}

func (f Finding) String() string {
	where := f.File
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
func (r *Report) Healthy() bool { return r.damage() == nil }

// damage returns the first unrecoverable finding, the one Open refuses
// the directory on, or nil.
func (r *Report) damage() *Finding {
	for i := range r.Findings {
		if !r.Findings[i].Recoverable {
			return &r.Findings[i]
		}
	}
	return nil
}

// Fsck verifies the data directory and reports every problem it can
// find: it runs recovery's own reader (load), which never writes, and
// lists the orphans Open would sweep. It returns an error only when
// the directory itself cannot be examined; in-file damage is reported
// in the Report, not as an error.
func Fsck(dir string) (*Report, error) {
	m, _, r := load(dir)
	orph, err := orphans(dir, m.files())
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	r.Orphans = orph
	return r, nil
}
