// Package stats holds no statistics, only names bench/ still compiles
// against; ROADMAP item 1 deletes it. EXPLAIN prices with the counts
// the tables hold (internal/plan's Describe).
package stats

import (
	"certsql/internal/guard"
	"certsql/internal/table"
)

// DBStats is kept only because bench/ names it; ROADMAP item 1 deletes it.
type DBStats struct{ Tables map[string]*TableStats }

// TableStats is kept only because bench/ names it; ROADMAP item 1 deletes it.
type TableStats struct{ Gen uint64 }

// Collector is kept only because bench/ names it; ROADMAP item 1 deletes it.
type Collector struct{}

// NewCollector is kept only because bench/ names it; ROADMAP item 1 deletes it.
func NewCollector() *Collector { return &Collector{} }

// Current returns nil. It is kept only because bench/ names it; ROADMAP
// item 1 deletes it.
func (*Collector) Current() *DBStats { return nil }

// CollectGoverned returns nil. It is kept only because bench/ names it;
// ROADMAP item 1 deletes it.
func (*Collector) CollectGoverned(*guard.Governor, *table.Database) (*DBStats, error) {
	return nil, nil
}
