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
// bytes. Partition placement everywhere (keep-loop routing, the
// partitioned store's /metrics counts) derives from this hash.
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

// drain collects a cursor's candidates, failing on a non-ascending
// sequence — consumers rely on ascending order to reproduce the nested
// loop's emit order.
func drain(t *testing.T, c Cursor) map[int]bool {
	t.Helper()
	got := map[int]bool{}
	last := -1
	for i, ok := c.Next(); ok; i, ok = c.Next() {
		if i <= last {
			t.Fatalf("candidates out of order: %d after %d", i, last)
		}
		last = i
		got[i] = true
	}
	return got
}

// TestKeyedBuildCandidates property-checks the keyed index: for any
// probe key, the cursor visits an ascending sequence that includes
// every build row the unification edge could accept — every row whose
// key is null, and every row whose key compares equal to the probe's
// (including int/float cross-kind equality) — and a null probe key
// visits every row. The shard-count argument must not matter.
func TestKeyedBuildCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		rows := make([]table.Row, rng.Intn(60))
		for i := range rows {
			rows[i] = table.Row{value.Int(rng.Int63n(8)), randomRow(rng)[0]}
		}
		col := rng.Intn(2)
		b := BuildKeyed(rows, col, 2+rng.Intn(7))
		if b.Keyed()+len(b.Wild) != len(rows) {
			t.Fatalf("%d keyed + %d wild rows, want %d in all", b.Keyed(), len(b.Wild), len(rows))
		}
		if n := b.EstimatedBytes(); n < int64(8*len(rows)) {
			t.Fatalf("EstimatedBytes = %d for %d rows", n, len(rows))
		}
		probe := randomRow(rng)[0]
		got := drain(t, b.Probe(probe))
		for i, r := range rows {
			mustSee := probe.IsNull() || r[col].IsNull() || value.ConstEqual(r[col], probe)
			if mustSee && !got[i] {
				t.Fatalf("row %d (%v) can satisfy the edge against %v but was not visited", i, r[col], probe)
			}
		}
		if !probe.IsNull() {
			one := BuildKeyed(rows, col, 1)
			if want := drain(t, one.Probe(probe)); len(want) != len(got) {
				t.Fatalf("shard count changed the candidates: %d vs %d", len(got), len(want))
			}
		}
	}
}

// TestRowBuildCandidates is the same property for the full-row index
// behind R ⋉⇑ S: every build row that unifies with the probe row is a
// candidate.
func TestRowBuildCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		rows := make([]table.Row, rng.Intn(60))
		for i := range rows {
			rows[i] = table.Row{value.Int(rng.Int63n(4)), randomRow(rng)[0]}
		}
		b := BuildRows(rows)
		probe := table.Row{value.Int(rng.Int63n(4)), randomRow(rng)[0]}
		got := drain(t, b.ProbeRow(probe))
		for i, r := range rows {
			if value.UnifyTuples(probe, r) && !got[i] {
				t.Fatalf("row %d %v unifies with %v but was not visited", i, r, probe)
			}
		}
	}
}

// TestKeyedBuildEdges covers the degenerate builds: empty, all wild,
// and distinct keys whose FoldKey hashes collide (integers beyond 2⁵³
// share a float64 encoding) — a collision only widens the candidates.
func TestKeyedBuildEdges(t *testing.T) {
	if got := drain(t, BuildKeyed(nil, 0, 1).Probe(value.Int(1))); len(got) != 0 {
		t.Fatalf("empty build yields candidates: %v", got)
	}
	wild := []table.Row{{value.Null(1)}, {value.Null(2)}, {value.Null(1)}}
	if got := drain(t, BuildKeyed(wild, 0, 1).Probe(value.Int(1))); len(got) != 3 {
		t.Fatalf("all-wild build: %d candidates, want 3", len(got))
	}
	big := int64(1) << 53
	rows := []table.Row{{value.Int(big)}, {value.Int(7)}, {value.Int(big + 1)}, {value.Null(3)}}
	if HashValue(rows[0][0]) != HashValue(rows[2][0]) {
		t.Fatal("test premise: 2^53 and 2^53+1 were meant to collide")
	}
	got := drain(t, BuildKeyed(rows, 0, 1).Probe(value.Int(big)))
	if !got[0] || !got[2] || !got[3] || got[1] {
		t.Fatalf("colliding keys: candidates %v, want rows 0, 2 and 3", got)
	}
	var zero Cursor
	if _, ok := zero.Next(); ok {
		t.Fatal("zero Cursor is not exhausted")
	}
}
