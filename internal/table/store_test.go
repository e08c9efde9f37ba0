package table

import (
	"sync"
	"sync/atomic"
	"testing"

	"certsql/internal/schema"
	"certsql/internal/value"
)

func storeSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.ParseDDL("CREATE TABLE t (a INT NOT NULL, b INT)")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreVersioning(t *testing.T) {
	db := NewDatabase(storeSchema(t))
	st := NewStore(db)
	if got := st.Version(); got != 1 {
		t.Fatalf("initial version = %d, want 1", got)
	}
	v, err := st.Update(func(d *Database) error {
		return d.Insert("t", Row{value.Int(1), value.Int(2)})
	})
	if err != nil || v != 2 {
		t.Fatalf("update: version %d, err %v", v, err)
	}
	if n := st.Snapshot().DB.MustTable("t").Len(); n != 1 {
		t.Fatalf("new snapshot has %d rows, want 1", n)
	}
	// The original database handed to NewStore was cloned, not mutated.
	if n := db.MustTable("t").Len(); n != 0 {
		t.Fatalf("version-1 database mutated: %d rows", n)
	}

	v = st.Publish(NewDatabase(storeSchema(t)))
	if v != 3 || st.Version() != 3 {
		t.Fatalf("publish: version %d, store version %d, want 3", v, st.Version())
	}
}

func TestStoreUpdateErrorPublishesNothing(t *testing.T) {
	st := NewStore(NewDatabase(storeSchema(t)))
	before := st.Snapshot()
	v, err := st.Update(func(d *Database) error {
		if err := d.Insert("t", Row{value.Int(1), value.Int(1)}); err != nil {
			return err
		}
		return d.Insert("t", Row{value.Str("wrong kind")}) // arity error
	})
	if err == nil {
		t.Fatal("update with failing mutate returned nil error")
	}
	if v != before.Version || st.Snapshot() != before {
		t.Fatalf("failed update published a snapshot: version %d → %d", before.Version, v)
	}
	if n := st.Snapshot().DB.MustTable("t").Len(); n != 0 {
		t.Fatalf("failed update leaked %d rows into the published snapshot", n)
	}
}

// TestStoreSnapshotIsolation hammers the store with writers that
// republish while readers scan: under -race this proves the reader
// side needs no locks, and the row-count assertion proves a reader
// never observes a half-applied update (each update inserts two rows
// atomically, so every snapshot must hold an even row count).
func TestStoreSnapshotIsolation(t *testing.T) {
	st := NewStore(NewDatabase(storeSchema(t)))
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; !stop.Load(); i++ {
				_, err := st.Update(func(d *Database) error {
					if err := d.Insert("t", Row{value.Int(int64(i)), value.Int(0)}); err != nil {
						return err
					}
					return d.Insert("t", Row{value.Int(int64(i)), value.Int(1)})
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var lastSeen atomic.Uint64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			prev := uint64(0)
			// At least 2000 scans, and — on a loaded machine the writers
			// may not have been scheduled yet by then — on until a
			// published update has been seen, up to a bound that keeps a
			// broken store a failure instead of a hang.
			for i := 0; i < 2000 || (prev < 2 && i < 5_000_000); i++ {
				snap := st.Snapshot()
				if snap.Version < prev {
					t.Errorf("version went backwards: %d after %d", snap.Version, prev)
					return
				}
				prev = snap.Version
				tab := snap.DB.MustTable("t")
				if tab.Len()%2 != 0 {
					t.Errorf("torn snapshot: %d rows at version %d", tab.Len(), snap.Version)
					return
				}
				// Touch every row: the race detector flags any write
				// into a published snapshot.
				for _, row := range tab.Rows() {
					_ = row[0].IsNull()
				}
				lastSeen.Store(snap.Version)
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	if lastSeen.Load() < 2 {
		t.Fatalf("readers never observed a published update (last version %d)", lastSeen.Load())
	}
}

// TestNotifyPanicContainment: one bad OnPublish subscriber must not
// kill the writer whose Update triggered the publish, must not starve
// subscribers registered after it, and must be visible in HookPanics.
func TestNotifyPanicContainment(t *testing.T) {
	st := NewStore(NewDatabase(storeSchema(t)))
	var after atomic.Uint64
	st.OnPublish(func(snap *Snapshot) { panic("buggy subscriber") })
	st.OnPublish(func(snap *Snapshot) { after.Store(snap.Version) })

	v, err := st.Update(func(d *Database) error {
		return d.Insert("t", Row{value.Int(1), value.Int(2)})
	})
	if err != nil || v != 2 {
		t.Fatalf("update through a panicking hook: version %d, err %v", v, err)
	}
	if got := after.Load(); got != 2 {
		t.Errorf("hook after the panicking one saw version %d, want 2", got)
	}
	if got := st.HookPanics(); got != 1 {
		t.Errorf("HookPanics = %d, want 1", got)
	}

	// Publish goes through the same notify path.
	if v := st.Publish(NewDatabase(storeSchema(t))); v != 3 {
		t.Fatalf("publish: version %d, want 3", v)
	}
	if got, want := after.Load(), uint64(3); got != want {
		t.Errorf("after publish, second hook saw version %d, want %d", got, want)
	}
	if got := st.HookPanics(); got != 2 {
		t.Errorf("HookPanics after publish = %d, want 2", got)
	}
}
