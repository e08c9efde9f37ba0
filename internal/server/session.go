package server

import (
	"fmt"
	"sync"

	"certsql"
	"certsql/internal/plancache"
	"certsql/internal/table"
)

// Catalog is the snapshot-store seam a session serves from. Both the
// in-memory table.Store and the durable persist.Store satisfy it, so
// the serving layer is identical whether the catalog lives in RAM or
// behind a write-ahead log: readers pin immutable snapshots, writers
// publish monotone versions.
type Catalog interface {
	// Snapshot returns the current published snapshot; never nil.
	Snapshot() *table.Snapshot
	// Version returns the current snapshot's version.
	Version() uint64
	// Update applies mutate to a private clone and publishes it as the
	// next version (see table.Store.Update for the exact contract).
	Update(mutate func(db *table.Database) error) (uint64, error)
}

// session is one named catalog: a snapshot store and the prepared
// statements clients registered against it.
//
// The store gives readers lock-free consistent views: each request
// pins the current snapshot once and evaluates entirely against it,
// so a concurrent load republishing the catalog never tears a result.
// Plans live in the server's one plan cache, keyed on the schema, which
// every snapshot of every session started from the seed shares: a load
// publishes new data under the same schema, so it invalidates nothing.
type session struct {
	name  string
	store Catalog

	mu       sync.Mutex
	prepared map[string]*certsql.Prepared
	nextID   int
}

// view builds the certsql facade over the current published snapshot,
// keying into plans. Two requests racing a publish may get different
// views; each view is internally consistent and immutable.
func (s *session) view(plans *plancache.Cache) *certsql.DB {
	snap := s.store.Snapshot()
	return certsql.FromSnapshot(snap.DB, snap.Version, plans)
}

// register stores a prepared statement and returns its handle.
func (s *session) register(p *certsql.Prepared) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	s.prepared[id] = p
	return id
}

// statement resolves a handle.
func (s *session) statement(id string) (*certsql.Prepared, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.prepared[id]
	return p, ok
}

// sessions is the named-catalog registry. Sessions are created on
// first use; every new session starts from the server's seed database
// (shared structurally — the seed is immutable, and copy-on-write
// updates clone before mutating, so sessions never observe each
// other's loads).
type sessions struct {
	seed *table.Database
	// durable, when non-nil, is the catalog backing the default
	// session — in the durable deployment (certsqld -data-dir) that is
	// a persist.Store, so loads against the default session survive
	// restarts. Named sessions stay in-memory scratch catalogs: they
	// start from the seed and die with the process by design.
	durable Catalog

	mu   sync.Mutex
	byID map[string]*session
}

func newSessions(seed *table.Database, durable Catalog) *sessions {
	return &sessions{seed: seed, durable: durable, byID: map[string]*session{}}
}

// defaultSession is the catalog used when a request names none.
const defaultSession = "default"

// get returns the named session, creating it on first use. An empty
// name means the default session.
func (ss *sessions) get(name string) *session {
	if name == "" {
		name = defaultSession
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.byID[name]
	if !ok {
		var store Catalog = table.NewStore(ss.seed)
		if name == defaultSession && ss.durable != nil {
			store = ss.durable
		}
		s = &session{
			name:     name,
			store:    store,
			prepared: map[string]*certsql.Prepared{},
		}
		ss.byID[name] = s
	}
	return s
}

// snapshotVersions reports each live session's current catalog
// version, for /metrics.
func (ss *sessions) snapshotVersions() map[string]uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make(map[string]uint64, len(ss.byID))
	for name, s := range ss.byID {
		out[name] = s.store.Version()
	}
	return out
}

// statsGauges reports, per session and relation, the row and total
// marked-null counts of the session's current snapshot, for /metrics:
// each table's length and the lengths of its nullable columns' null
// lists, which a table builds once per content generation and then
// shares with the executor's null-list reads. NOT NULL columns hold no
// nulls (every write enforces it), so their lists are never built.
func (ss *sessions) statsGauges() []tableStatsGauge {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []tableStatsGauge
	for name, s := range ss.byID {
		db := s.store.Snapshot().DB
		for _, tbl := range db.Schema.Names() {
			rel, _ := db.Schema.Relation(tbl)
			t := db.MustTable(tbl)
			var nulls int
			for col, a := range rel.Attrs {
				if a.Nullable {
					rows, _ := t.NullRows(col)
					nulls += len(rows)
				}
			}
			out = append(out, tableStatsGauge{session: name, table: tbl, rows: int64(t.Len()), nulls: int64(nulls)})
		}
	}
	return out
}

// count reports the number of live sessions.
func (ss *sessions) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.byID)
}
