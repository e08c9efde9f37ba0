// Package persist is the crash-safe durability layer behind
// table.Store. It persists a catalog as checksummed columnar segment
// files (one per table per checkpoint) plus a write-ahead log of
// Store.Update deltas, all referenced from a MANIFEST published by
// atomic rename.
//
// The invariant the layer maintains is: the on-disk state is always a
// prefix of the published version sequence — monotone, never torn.
// Every acknowledged Update is synced to the WAL before its version is
// published to in-memory readers, so a crash at any instant loses at
// most work that was never acknowledged; recovery replays the WAL past
// the last checkpoint, truncates a torn tail record (the only damage a
// clean crash can cause), verifies every checksum, and resumes the
// version sequence exactly where the previous process stopped. Recovery
// and Fsck run one reader (load.go), so fsck's verdict is what Open does.
//
// Everything is stdlib-only and append-only: segments and WAL files
// are never rewritten in place, and the manifest rename is the single
// commit point of a checkpoint.
package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"certsql/internal/guard"
	"certsql/internal/table"
)

// Options configures a Store.
type Options struct {
	// CheckpointEvery is the number of WAL records after which a full
	// checkpoint (fresh segments + empty WAL) is taken. 0 means the
	// default (64); negative disables automatic checkpoints.
	CheckpointEvery int
	// Hook, when non-nil, is consulted at every durability seam
	// (guard.PersistSites) — the crash-recovery chaos suite injects
	// simulated crashes and I/O errors through it.
	Hook guard.FaultHook
	// Logf, when non-nil, receives operational log lines (recovery
	// progress, contained checkpoint failures, orphan sweeps).
	Logf func(format string, args ...any)
}

const defaultCheckpointEvery = 64

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery == 0 {
		return defaultCheckpointEvery
	}
	return o.CheckpointEvery
}

// Store is a durable table.Store: same snapshot/version semantics for
// readers, with every published version backed by synced bytes on
// disk. Readers pay nothing — Snapshot and Version delegate straight
// to the in-memory store; writers pay one WAL append + fsync per
// Update and a full checkpoint every CheckpointEvery updates.
type Store struct {
	dir  string
	opts Options
	mem  *table.Store

	mu         sync.Mutex // serializes durable writers
	wal        *os.File
	walName    string
	walRecords int
	broken     error // a failed WAL rollback left the log in an unknown state
	closed     bool
}

// Open opens (or creates) the data directory. When dir holds a
// published manifest, the catalog is recovered from it: segments are
// read and checksum-verified, the WAL is replayed past the checkpoint,
// and a torn tail record is truncated. When it holds none of the
// store's files, or only what a first checkpoint that crashed before
// its manifest rename leaves, seed is called for the initial database
// and version 1 is checkpointed before Open returns, so a crash after
// Open can always recover without the seed. Any other directory is
// refused, with the error of fsck's first unrecoverable finding.
func Open(dir string, seed func() (*table.Database, error), opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: dir, opts: opts}
	m, db, rep := load(dir)
	if f := rep.damage(); f != nil {
		return nil, f.refusal(dir)
	}
	if m == nil {
		return s, s.openFresh(seed)
	}
	return s, s.openRecover(m, db, rep)
}

// openFresh seeds and checkpoints version 1.
func (s *Store) openFresh(seed func() (*table.Database, error)) error {
	// A crash during a previous first checkpoint may have left temp
	// files or renamed-but-unpublished segments; load vetted them, and
	// with no manifest they are all garbage.
	s.sweepOrphans(nil)
	db, err := seed()
	if err != nil {
		return fmt.Errorf("persist: seeding %s: %w", s.dir, err)
	}
	s.mem = table.NewStoreAt(db, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkpointLocked(db, 1); err != nil {
		return err
	}
	s.logf("persist: %s: created at version 1", s.dir)
	return nil
}

// openRecover takes up the catalog load rebuilt from m, whose report
// has no unrecoverable finding.
func (s *Store) openRecover(m *manifest, db *table.Database, rep *Report) error {
	// Reopen the WAL for appending, truncating a torn tail first (the
	// one recoverable finding) at the start of its frame, just past the
	// last verified record: the torn bytes are the remains of a record
	// that was never acknowledged, so dropping them loses nothing that
	// was promised.
	walPath := filepath.Join(s.dir, m.WAL)
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if len(rep.Findings) > 0 {
		torn := rep.Findings[0]
		s.logf("persist: %s: truncating torn WAL tail (%s)", walPath, torn)
		if err := wal.Truncate(torn.Offset); err != nil {
			// vetcert:ignore durawrite: abort path — open failed, handle is dead.
			wal.Close()
			return fmt.Errorf("persist: truncating %s: %w", walPath, err)
		}
		if err := wal.Sync(); err != nil {
			// vetcert:ignore durawrite: abort path — the sync error is reported.
			wal.Close()
			return fmt.Errorf("persist: sync %s: %w", walPath, err)
		}
	}
	s.wal, s.walName, s.walRecords = wal, m.WAL, rep.WALRecords
	s.mem = table.NewStoreAt(db, rep.Version)
	s.sweepOrphans(m.files())
	s.logf("persist: %s: recovered to version %d (checkpoint %d + %d WAL records)",
		s.dir, rep.Version, rep.Checkpoint, rep.WALRecords)
	return nil
}

// Snapshot returns the current published snapshot (see table.Store).
func (s *Store) Snapshot() *table.Snapshot { return s.mem.Snapshot() }

// Version returns the current published version.
func (s *Store) Version() uint64 { return s.mem.Version() }

// Update clones the current database, applies mutate, syncs the delta
// to the WAL, and only then publishes the new version to in-memory
// readers — an acknowledged update is a durable update. The mutation
// must go through Database.Insert / Database.ReplaceRow (directly or
// via loaders built on them); mutations that bypass the catalog are
// detected and rejected before anything is published.
func (s *Store) Update(mutate func(db *table.Database) error) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("persist: store is closed")
	}
	cur := s.mem.Snapshot()
	if s.broken != nil {
		return cur.Version, fmt.Errorf("persist: store is broken after a failed WAL rollback (%w); reopen the data directory to recover", s.broken)
	}
	clone := cur.DB.Clone()
	var ops []table.Op
	clone.SetRecorder(func(op table.Op) { ops = append(ops, op) })
	err := mutate(clone)
	clone.SetRecorder(nil)
	if err != nil {
		return cur.Version, err
	}
	if err := verifyCaptured(cur.DB, clone, ops); err != nil {
		return cur.Version, err
	}
	version := cur.Version + 1
	if err := s.appendRecord(version, clone.NextNullMark(), ops); err != nil {
		return cur.Version, err
	}
	if v := s.mem.Publish(clone); v != version {
		// All writers serialize on s.mu, so the in-memory version can
		// not have moved under us; if it did, the WAL record we just
		// synced names the wrong version and the store must not
		// continue.
		panic(fmt.Sprintf("persist: version skew: WAL record %d, memory published %d", version, v))
	}
	s.walRecords++
	if every := s.opts.checkpointEvery(); every > 0 && s.walRecords >= every {
		if err := s.checkpointLocked(clone, version); err != nil {
			// The update is already durable in the WAL; a failed
			// checkpoint costs recovery time, not correctness. Keep the
			// store live and retry at the next update.
			s.logf("persist: %s: checkpoint at version %d failed (will retry): %v", s.dir, version, err)
		}
	}
	return version, nil
}

// Publish durably replaces the whole catalog (a fresh load or DDL
// change): the new database is checkpointed in full, then published.
// Unlike Update, a failed checkpoint fails the publish — there is no
// WAL delta that could make the replacement durable.
func (s *Store) Publish(db *table.Database) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("persist: store is closed")
	}
	cur := s.mem.Snapshot()
	version := cur.Version + 1
	if err := s.checkpointLocked(db, version); err != nil {
		return cur.Version, err
	}
	if v := s.mem.Publish(db); v != version {
		panic(fmt.Sprintf("persist: version skew: checkpoint %d, memory published %d", version, v))
	}
	return version, nil
}

// appendRecord writes and syncs one framed WAL record. On a hook-
// injected error the partial write is rolled back by truncation; a
// truncation failure marks the store broken (the WAL tail is in an
// unknown state and only a reopen-with-recovery may trust it again).
func (s *Store) appendRecord(version uint64, nextNull int64, ops []table.Op) error {
	if s.wal == nil {
		return errors.New("persist: store has no open WAL")
	}
	frame := sealFrame(encodeWALRecord(reserveFrame(nil), version, nextNull, ops), 0)
	start, err := s.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("persist: %s: %w", s.walName, err)
	}
	rollback := func(cause error) error {
		if terr := s.wal.Truncate(start); terr != nil {
			s.broken = terr
			return errors.Join(cause, fmt.Errorf("persist: rolling back %s to offset %d: %w", s.walName, start, terr))
		}
		return cause
	}
	// The record is written in two halves with a crash seam between
	// them and another before the sync — the exact places a real crash
	// tears a record or loses an unsynced one.
	split := len(frame) / 2
	if _, err := s.wal.Write(frame[:split]); err != nil {
		return rollback(fmt.Errorf("persist: %s: %w", s.walName, err))
	}
	if err := s.hit(guard.SitePersistWALAppend); err != nil {
		return rollback(err)
	}
	if _, err := s.wal.Write(frame[split:]); err != nil {
		return rollback(fmt.Errorf("persist: %s: %w", s.walName, err))
	}
	if err := s.hit(guard.SitePersistWALAppend); err != nil {
		return rollback(err)
	}
	if err := s.hit(guard.SitePersistFsync); err != nil {
		return rollback(err)
	}
	if err := s.wal.Sync(); err != nil {
		return rollback(fmt.Errorf("persist: sync %s: %w", s.walName, err))
	}
	return nil
}

// checkpointLocked writes a full checkpoint of db at version: one
// segment per relation, a fresh empty WAL, then the manifest rename
// that commits it all. The previous checkpoint's files are removed
// only after the new manifest is published. Caller holds s.mu.
func (s *Store) checkpointLocked(db *table.Database, version uint64) error {
	if err := s.hit(guard.SitePersistCheckpoint); err != nil {
		return err
	}
	ddl, err := renderDDL(db.Schema)
	if err != nil {
		return err
	}
	m := &manifest{
		Format:    manifestFormat,
		Version:   version,
		NextNull:  db.NextNullMark(),
		SchemaDDL: ddl,
		WAL:       walFile(version),
	}
	var buf []byte // one encoding buffer for every segment
	for _, name := range db.Schema.Names() {
		t := db.MustTable(name)
		segName := segFile(version, name)
		size, err := writeSegment(s.dir, segName, name, t, s.hit, &buf)
		if err != nil {
			return err
		}
		m.Segments = append(m.Segments, manifestSegment{Table: name, File: segName, Rows: t.Len(), Bytes: size})
	}
	wal, err := createWAL(s.dir, m.WAL, s.hit)
	if err != nil {
		return err
	}
	// If the manifest publish aborts — by error or by a simulated-crash
	// panic — the new WAL was never referenced and its handle must go.
	published := false
	defer func() {
		if !published {
			// vetcert:ignore durawrite: abort path — the unpublished WAL is discarded.
			wal.Close()
		}
	}()
	if err := writeManifest(s.dir, m, s.hit); err != nil {
		return err
	}
	published = true
	// Committed. Retire the previous checkpoint's files; failures here
	// only leak disk (the sweep at next open reclaims them).
	if s.wal != nil {
		// vetcert:ignore durawrite: superseded WAL — its records are in the new checkpoint's segments.
		s.wal.Close()
	}
	s.wal, s.walName, s.walRecords = wal, m.WAL, 0
	s.sweepOrphans(m.files())
	return nil
}

// segFile and walFile name a checkpoint's files.
func segFile(version uint64, rel string) string { return fmt.Sprintf("seg-%016x-%s.seg", version, rel) }
func walFile(version uint64) string             { return fmt.Sprintf("wal-%016x.log", version) }

// sweepOrphans removes the files orphans lists (keep nil means "keep
// none"). Best-effort: failures are logged.
func (s *Store) sweepOrphans(keep map[string]bool) {
	names, err := orphans(s.dir, keep)
	if err != nil {
		s.logf("persist: %s: orphan sweep: %v", s.dir, err)
		return
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			s.logf("persist: %s: removing orphan %s: %v", s.dir, name, err)
		} else {
			s.logf("persist: %s: removed orphan %s", s.dir, name)
		}
	}
}

// Close syncs and closes the WAL. The store refuses further updates;
// readers holding snapshots are unaffected. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal == nil {
		return nil
	}
	serr := s.wal.Sync()
	cerr := s.wal.Close()
	s.wal = nil
	if serr != nil {
		return fmt.Errorf("persist: sync %s: %w", s.walName, serr)
	}
	if cerr != nil {
		return fmt.Errorf("persist: close %s: %w", s.walName, cerr)
	}
	return nil
}

// Abandon drops the store's file handles without syncing anything —
// the in-process equivalent of kill -9, used by the crash-recovery
// suite after an injected panic to guarantee nothing is flushed on the
// way down before the directory is reopened.
func (s *Store) Abandon() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.wal != nil {
		// vetcert:ignore durawrite: simulated crash — deliberately dropping unsynced state.
		s.wal.Close()
		s.wal = nil
	}
}

// hit consults the fault hook, if any.
func (s *Store) hit(site guard.Site) error {
	if s.opts.Hook == nil {
		return nil
	}
	return s.opts.Hook.Hit(site)
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// verifyCaptured checks that the recorded ops fully explain the
// difference between the pre-state and the mutated clone: for every
// relation, pre-state length + recorded inserts must equal post-state
// length. A mutation that appended to a Table directly (bypassing
// Database.Insert) would otherwise be published in memory but lost
// from the WAL — exactly the kind of silent divergence this layer
// exists to rule out.
func verifyCaptured(pre, post *table.Database, ops []table.Op) error {
	inserts := map[string]int{}
	for _, op := range ops {
		if op.Kind == table.OpInsert {
			inserts[op.Table]++
		}
	}
	for _, name := range post.Schema.Names() {
		got := post.MustTable(name).Len()
		want := pre.MustTable(name).Len() + inserts[name]
		if got != want {
			return fmt.Errorf("persist: relation %q: mutation bypassed the delta recorder (%d rows appeared, %d recorded); mutate only via Database.Insert/ReplaceRow",
				name, got-pre.MustTable(name).Len(), inserts[name])
		}
	}
	return nil
}
