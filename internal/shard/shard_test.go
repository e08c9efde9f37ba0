package shard

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"certsql/internal/table"
	"certsql/internal/value"
)

func randomRow(rng *rand.Rand) table.Row {
	row := make(table.Row, 1+rng.Intn(5))
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = value.Int(rng.Int63n(50))
		case 1:
			row[i] = value.Float(float64(rng.Int63n(50)))
		case 2:
			row[i] = value.Str(string(rune('a' + rng.Intn(26))))
		case 3:
			row[i] = value.Null(rng.Int63n(10))
		default:
			row[i] = value.Bool(rng.Intn(2) == 0)
		}
	}
	return row
}

// TestHashRowIsFNVOverRowKey pins the allocation-free fold to the
// reference definition: 64-bit FNV-1a over value.RowKey's canonical
// bytes. Partition placement derives from this hash.
func TestHashRowIsFNVOverRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		row := randomRow(rng)
		h := fnv.New64a()
		h.Write([]byte(value.RowKey(row)))
		if got, want := HashRow(row), h.Sum64(); got != want {
			t.Fatalf("HashRow(%v) = %#x, want FNV-1a over RowKey %#x", row, got, want)
		}
	}
}

// TestPartitionCoversEveryRow checks the routing is a partition in the
// mathematical sense: every row index appears in exactly one shard.
func TestPartitionCoversEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([]table.Row, 200)
	for i := range rows {
		rows[i] = randomRow(rng)
	}
	for _, k := range []int{1, 2, 3, 8} {
		seen := make([]bool, len(rows))
		for _, part := range Partition(rows, k) {
			for _, i := range part {
				if seen[i] {
					t.Fatalf("k=%d: row %d routed twice", k, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("k=%d: row %d routed nowhere", k, i)
			}
		}
	}
}
