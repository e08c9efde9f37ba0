package table

import (
	"sync"
	"sync/atomic"
)

// Snapshot is one published, immutable version of a database. The
// version is a monotonically increasing catalog/data version: every
// publish — a load, any mutation — produces a new snapshot under a new
// version, which labels results and the durable log. Plans do not key
// on it: they read only the schema, which every snapshot of a store
// shares (Database.Clone keeps it).
type Snapshot struct {
	// DB is the database at this version. It is immutable by contract:
	// neither the publisher nor any reader may mutate it after publish.
	DB *Database
	// Version is the snapshot's catalog/data version (≥ 1).
	Version uint64
}

// Store publishes copy-on-write database snapshots for concurrent
// readers. Readers call Snapshot and evaluate against the returned
// database with no locking at all — the pointer swap is atomic, and a
// published database is never mutated. Writers serialize among
// themselves on the store's mutex and swap in whole new versions:
//
//	store.Update(func(db *Database) error {
//	    return db.Insert("orders", row) // mutates a private clone
//	})
//
// A reader that loaded version N mid-update keeps evaluating against
// version N's tables; it sees exactly the old or exactly the new
// version, never a mix.
type Store struct {
	mu  sync.Mutex // serializes publishers
	cur atomic.Pointer[Snapshot]
}

// NewStore returns a store whose first published snapshot is db, at
// version 1. The caller hands over ownership: db must not be mutated
// after this call.
func NewStore(db *Database) *Store { return NewStoreAt(db, 1) }

// NewStoreAt returns a store whose first published snapshot is db at
// the given version (≥ 1). The persistent store uses it after
// recovery, so the version sequence continues where the previous
// process stopped instead of restarting from 1 — clients and the
// durable log label data by version, and a restart must never reissue
// an already-published version number for different data.
func NewStoreAt(db *Database, version uint64) *Store {
	if version < 1 {
		version = 1
	}
	s := &Store{}
	s.cur.Store(&Snapshot{DB: db, Version: version})
	return s
}

// Snapshot returns the current published snapshot. It never returns
// nil and never blocks, regardless of concurrent publishers.
func (s *Store) Snapshot() *Snapshot { return s.cur.Load() }

// Version returns the current snapshot's version.
func (s *Store) Version() uint64 { return s.cur.Load().Version }

// Publish swaps in db as the next version and returns that version.
// The caller hands over ownership: db must not be mutated afterwards.
// Use Publish for wholesale replacement (a fresh load); use Update for
// incremental copy-on-write mutation.
func (s *Store) Publish(db *Database) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load().Version + 1
	s.cur.Store(&Snapshot{DB: db, Version: v})
	return v
}

// Update clones the current database, applies mutate to the private
// clone, and publishes the result as the next version. When mutate
// returns an error nothing is published and the current version is
// returned unchanged. Concurrent Updates serialize; readers are never
// blocked and never observe the clone mid-mutation.
func (s *Store) Update(mutate func(db *Database) error) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	clone := cur.DB.Clone()
	if err := mutate(clone); err != nil {
		return cur.Version, err
	}
	v := cur.Version + 1
	s.cur.Store(&Snapshot{DB: clone, Version: v})
	return v, nil
}
