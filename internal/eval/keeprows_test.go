package eval

import (
	"math/rand"
	"testing"

	"certsql/internal/shard"
	"certsql/internal/table"
	"certsql/internal/value"
)

// keepRowSet draws n rows of one arity from a small value pool, so
// duplicates are common, with marked nulls from a pool of four marks
// and ints and floats that are equal across kinds — rows the router
// must send to the same shard — and then repeats some rows outright:
// equal content at different positions, which only order can tell apart.
func keepRowSet(rng *rand.Rand, n int) []table.Row {
	arity := 1 + rng.Intn(3)
	rows := make([]table.Row, n)
	for i := range rows {
		if i > 0 && rng.Intn(4) == 0 {
			rows[i] = append(table.Row(nil), rows[rng.Intn(i)]...)
			continue
		}
		row := make(table.Row, arity)
		for c := range row {
			switch rng.Intn(4) {
			case 0:
				row[c] = value.Null(1 + rng.Int63n(4))
			case 1:
				row[c] = value.Float(float64(rng.Intn(6)))
			default:
				row[c] = value.Int(int64(rng.Intn(6)))
			}
		}
		rows[i] = row
	}
	return rows
}

// keepPred draws a verdict and a per-row cost, both pure functions of
// row content — what the worker contract demands of a predicate.
func keepPred(rng *rand.Rand) func(lr table.Row) (keep bool, cost int64) {
	mod, salt := uint64(2+rng.Intn(4)), uint64(rng.Intn(7))
	nullsPass := rng.Intn(2) == 0
	return func(lr table.Row) (bool, int64) {
		h := shard.HashRow(lr) + salt
		if lr[0].IsNull() {
			return nullsPass, 1
		}
		return h%mod == 0, 1 + int64(h%5)
	}
}

// TestKeepRowsMatchesSequentialKeep is the property the one fan-out
// rests on: whatever order Shards makes the pool's workers visit the
// rows in, and however many workers share it, keepRows returns exactly
// the rows a sequential loop keeps, the same row values in input order
// (compared by identity, so duplicates cannot trade places), and the
// cost units the predicate counted sum to the sequential total.
func TestKeepRowsMatchesSequentialKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		// Up to 8 chunks of minParallelRows, so every worker count
		// below is reached, and sometimes too few rows to fan out.
		rows := keepRowSet(rng, rng.Intn(8*minParallelRows+1))
		pred := keepPred(rng)
		var want []table.Row
		var wantCost int64
		for _, r := range rows {
			ok, cost := pred(r)
			wantCost += cost
			if ok {
				want = append(want, r)
			}
		}
		for _, shards := range []int{1, 2, 3, 8} {
			for _, par := range []int{1, 2, 4} {
				ev := New(nil, Options{Shards: shards, Parallelism: par})
				got, err := ev.keepRows("keep", rows, "", func(c *chunk, lr table.Row) (bool, error) {
					ok, cost := pred(lr)
					c.st.costUnits += cost
					return ok, nil
				})
				if err != nil {
					t.Fatalf("trial %d Shards=%d P=%d: %v", trial, shards, par, err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d Shards=%d P=%d: kept %d of %d rows, sequential keeps %d", trial, shards, par, len(got), len(rows), len(want))
				}
				for i := range got {
					if &got[i][0] != &want[i][0] {
						t.Fatalf("trial %d Shards=%d P=%d: output row %d is %v, sequential keeps %v there", trial, shards, par, i, got[i], want[i])
					}
				}
				if got := ev.stats.CostUnits; got != wantCost {
					t.Fatalf("trial %d Shards=%d P=%d: %d cost units, sequential %d", trial, shards, par, got, wantCost)
				}
				if got, want := ev.gov.CostSpent(), wantCost; got != want {
					t.Fatalf("trial %d Shards=%d P=%d: governor charged %d cost units, sequential %d", trial, shards, par, got, want)
				}
				if routed := ev.stats.ShardScatters; (routed == 1) != (shards > 1) {
					t.Fatalf("trial %d Shards=%d P=%d: ShardScatters = %d", trial, shards, par, routed)
				}
			}
		}
	}
}
