// Package shard is what is left of content-hash routing. Nothing in
// the engine reads it: the executor visits every keep loop's rows in
// input order. HashRow, Partition and BuildKeyed are kept only because
// the benchmark module (bench/) still times them.
package shard

import (
	"certsql/internal/table"
	"certsql/internal/value"
)

// HashRow returns a deterministic 64-bit FNV-1a hash of a row's
// canonical key. Values that compare equal render identical keys
// (value.RowKey's property test pins this), so equal rows always land
// in the same partition.
func HashRow(row table.Row) uint64 {
	h := value.KeySeed
	for _, v := range row {
		h = value.FoldKey(h, v)
	}
	return h
}

// Partition splits the row indices 0..len(rows)-1 across k shards by
// content hash, ascending within each shard.
func Partition(rows []table.Row, k int) [][]int {
	parts := make([][]int, k)
	if k <= 0 {
		return parts
	}
	for i, r := range rows {
		s := int(HashRow(r) % uint64(k))
		parts[s] = append(parts[s], i)
	}
	return parts
}

// BuildKeyed indexes rows for unification on column col; k is ignored.
// Only the benchmark module calls it, and it goes when that stops.
func BuildKeyed(rows []table.Row, col, k int) *table.Index {
	return table.BuildIndex(rows, []int{col}, table.NullsWild, 0, nil)
}
