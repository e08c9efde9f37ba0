package persist_test

// Cold-start benchmark: how fast does a certsqld process get a live
// catalog? The CSV path re-parses and re-validates every row on every
// start; the persistent store's warm open reads checksummed columnar
// segments and replays an (empty, post-checkpoint) WAL. EXPERIMENTS.md
// records the measured table. The external test package makes the
// test-only import of the root certsql facade acyclic (persist itself
// never imports it).

import (
	"errors"
	"testing"

	"certsql"
	"certsql/internal/persist"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

// benchConfig is big enough for the open-path difference to dominate
// fixed costs (≈9k rows) while keeping the benchmark setup quick.
var benchConfig = tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.03}

// setupColdStart materializes the same instance both ways: a CSV dump
// and a checkpointed data directory.
func setupColdStart(b *testing.B) (csvDir, dataDir string) {
	b.Helper()
	db := tpch.Generate(benchConfig)
	csvDir, dataDir = b.TempDir(), b.TempDir()
	if err := certsql.FromInternal(db).DumpCSV(csvDir); err != nil {
		b.Fatal(err)
	}
	st, err := persist.Open(dataDir, func() (*table.Database, error) { return db, nil }, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	return csvDir, dataDir
}

func BenchmarkColdStart(b *testing.B) {
	csvDir, dataDir := setupColdStart(b)
	noSeed := func() (*table.Database, error) {
		return nil, errors.New("warm open must not re-seed")
	}

	b.Run("csv-reload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := certsql.OpenTPCHDir(csvDir); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := persist.Open(dataDir, noSeed, persist.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckpoint times a full checkpoint of the sf 0.01 instance
// (Store.Publish: one segment per relation, a fresh WAL, the manifest
// rename), fsyncs included. -benchmem shows the encoding's allocations:
// each segment's blocks are encoded and framed in one reused buffer.
func BenchmarkCheckpoint(b *testing.B) {
	db := tpch.Generate(benchConfig)
	st, err := persist.Open(b.TempDir(), func() (*table.Database, error) { return db, nil }, persist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Publish(db); err != nil {
			b.Fatal(err)
		}
	}
}
