package table

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"certsql/internal/value"
)

// keyVal draws the values that make hashing hard: duplicates from a
// small pool, marked nulls whose marks recur, ints and the floats that
// equal them, 2⁵³ and 2⁵³+1 (distinct integers that round to one
// float64), and strings whose length prefix is all that tells
// ("a","b") from ("ab","").
func keyVal(rng *rand.Rand) value.Value {
	switch rng.Intn(8) {
	case 0:
		return value.Null(1 + rng.Int63n(3))
	case 1:
		return value.Float(float64(rng.Intn(4)))
	case 2:
		return value.Int(1<<53 + rng.Int63n(2))
	case 3:
		return value.Str([]string{"", "a", "b", "ab"}[rng.Intn(4)])
	default:
		return value.Int(int64(rng.Intn(4)))
	}
}

func keyRows(rng *rand.Rand, n, arity int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, arity)
		for c := range rows[i] {
			rows[i][c] = keyVal(rng)
		}
	}
	return rows
}

// drain collects a cursor's candidates, failing on a non-ascending
// sequence: consumers rely on ascending order to reproduce the nested
// loop's emit order.
func drain(t *testing.T, c Cursor) []int {
	t.Helper()
	var got []int
	for i, ok := c.Next(); ok; i, ok = c.Next() {
		if len(got) > 0 && i <= got[len(got)-1] {
			t.Fatalf("candidates out of order: %d after %v", i, got)
		}
		got = append(got, i)
	}
	return got
}

// encode is the definitional key: AppendKey bytes of r's cols, and
// whether one of them is null.
func encode(r Row, cols []int) (string, bool) {
	var b []byte
	null := false
	for _, c := range cols {
		null = null || r[c].IsNull()
		b = value.AppendKey(b, r[c])
	}
	return string(b), null
}

// TestIndexPolicies property-checks Probe under each null-key policy
// against the definitional answer, in ascending order: the positions
// whose key bytes equal the probe's — marks included under NullsByMark,
// null-keyed rows and probes left out under NullsSkip — plus, under
// NullsWild, every null-keyed row, and every row for a null probe key.
// Keys have zero to three columns (zero: one bucket, the global
// aggregate), and a keep filter holds rows out of the equality
// policies' builds.
func TestIndexPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 600; trial++ {
		rows := keyRows(rng, rng.Intn(40), 3)
		cols := rng.Perm(3)[:rng.Intn(4)]
		nulls := NullKeys(rng.Intn(3))
		out := map[int]bool{}
		var keep func(Row) bool
		if nulls != NullsWild && rng.Intn(2) == 0 {
			for i := range rows {
				out[i] = rng.Intn(3) == 0
			}
			at := 0
			keep = func(Row) bool { at++; return !out[at-1] }
		}
		// Half the trials read the rows in two parts, cut anywhere.
		var x *Index
		if cut := rng.Intn(len(rows) + 1); rng.Intn(2) == 0 {
			x = BuildIndexParts([][]Row{rows[:cut], rows[cut:]}, cols, nulls, rng.Intn(8), keep)
		} else {
			x = BuildIndex(rows, cols, nulls, rng.Intn(8), keep)
		}
		probe := keyRows(rng, 1, 3)[0]
		pKey, pNull := encode(probe, cols)
		var want []int
		for i, r := range rows {
			k, null := encode(r, cols)
			hit := !out[i] && k == pKey && (nulls == NullsByMark || !null && !pNull)
			if nulls == NullsWild {
				hit = hit || null || pNull
			}
			if hit {
				want = append(want, i)
			}
		}
		var buf []byte
		got := drain(t, x.Probe(probe, cols, &buf))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d, policy %d, cols %v, probe %v over %v:\n got %v\nwant %v", trial, nulls, cols, probe, rows, got, want)
		}
		if n := x.EstimatedBytes(); n < int64(8*len(rows)) {
			t.Fatalf("EstimatedBytes = %d for %d rows", n, len(rows))
		}
	}
}

// TestIndexInsert checks the incremental insert against a value.RowKey
// set: a row's group is the number of distinct RowKeys — marks compare
// by mark — seen before its own first occurrence, and it is fresh
// exactly when it is that occurrence. An empty column list makes one
// group. The index keeps state per group, not per row offered.
func TestIndexInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		rows := keyRows(rng, rng.Intn(40), 3)
		cols := rng.Perm(3)[:rng.Intn(4)]
		x := NewIndex(0)
		seen := map[string]int{}
		for i, r := range rows {
			proj := make(Row, len(cols))
			for j, c := range cols {
				proj[j] = r[c]
			}
			wantGroup, ok := seen[value.RowKey(proj)]
			if !ok {
				wantGroup = len(seen)
				seen[value.RowKey(proj)] = wantGroup
			}
			group, fresh := x.Insert(r, cols)
			if group != wantGroup || fresh != !ok {
				t.Fatalf("trial %d, cols %v, row %d %v: Insert = (%d, %v), want group %d, fresh %v",
					trial, cols, i, r, group, fresh, wantGroup, !ok)
			}
		}
		if len(cols) == 0 && len(rows) > 0 && x.Keyed() != 1 {
			t.Fatalf("no key columns: %d groups, want 1", x.Keyed())
		}
	}
	x := NewIndex(0)
	for i := 0; i < 10000; i++ {
		x.Insert(Row{value.Int(int64(i % 3))}, []int{0})
	}
	if n := x.EstimatedBytes(); n > 3*(32+9) {
		t.Fatalf("10 000 inserts of 3 keys: EstimatedBytes = %d, want state for 3 keys", n)
	}
}

// TestIndexArenaFollowsKeyBytes builds an index whose first key is a
// 32 KiB string and whose other 1 000 keys are integers: the build must
// allocate in proportion to the key bytes, not to the first key's width
// times the row count.
func TestIndexArenaFollowsKeyBytes(t *testing.T) {
	rows := []Row{{value.Str(strings.Repeat("x", 32<<10))}}
	for i := 0; i < 1000; i++ {
		rows = append(rows, Row{value.Int(int64(i))})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := BuildIndex(rows, []int{0}, NullsSkip, len(rows), nil)
	runtime.ReadMemStats(&after)
	keyBytes := int64(5 + 32<<10 + 9*1000)
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > 4*x.EstimatedBytes()+4*keyBytes {
		t.Fatalf("build allocated %d B for %d B of keys (estimate %d B)", alloc, keyBytes, x.EstimatedBytes())
	}
}

// TestIndexWildCandidates is the unification-edge property on one
// column: the cursor visits every row the edge a = b OR a IS NULL OR
// b IS NULL can accept — every row whose key is null, every row whose
// key compares equal to the probe's (int/float cross-kind included) —
// and a null probe key visits every row.
func TestIndexWildCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		rows := make([]Row, rng.Intn(60))
		for i := range rows {
			rows[i] = Row{value.Int(rng.Int63n(8)), keyVal(rng)}
		}
		col := rng.Intn(2)
		x := BuildIndex(rows, []int{col}, NullsWild, len(rows), nil)
		if x.Keyed()+x.Wild() != len(rows) {
			t.Fatalf("%d keyed + %d wild rows, want %d in all", x.Keyed(), x.Wild(), len(rows))
		}
		probe := Row{keyVal(rng)}
		var buf []byte
		got := map[int]bool{}
		for _, i := range drain(t, x.Probe(probe, []int{0}, &buf)) {
			got[i] = true
		}
		for i, r := range rows {
			mustSee := probe[0].IsNull() || r[col].IsNull() || value.ConstEqual(r[col], probe[0])
			if mustSee && !got[i] {
				t.Fatalf("row %d (%v) can satisfy the edge against %v but was not visited", i, r[col], probe[0])
			}
		}
	}
}

// TestIndexRowCandidates is the same property for the full-row index
// behind R ⋉⇑ S: every build row that unifies with the probe row is a
// candidate.
func TestIndexRowCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := []int{0, 1}
	for trial := 0; trial < 500; trial++ {
		rows := make([]Row, rng.Intn(60))
		for i := range rows {
			rows[i] = Row{value.Int(rng.Int63n(4)), keyVal(rng)}
		}
		x := BuildIndex(rows, all, NullsWild, len(rows), nil)
		probe := Row{value.Int(rng.Int63n(4)), keyVal(rng)}
		var buf []byte
		got := map[int]bool{}
		for _, i := range drain(t, x.Probe(probe, all, &buf)) {
			got[i] = true
		}
		for i, r := range rows {
			if value.UnifyTuples(probe, r) && !got[i] {
				t.Fatalf("row %d %v unifies with %v but was not visited", i, r, probe)
			}
		}
	}
}

// TestIndexEdges covers the degenerate builds, empty and all wild, and
// distinct integers beyond 2⁵³, which round to one float64 but not to
// one key: 2⁵³+1 stays out of 2⁵³'s bucket.
func TestIndexEdges(t *testing.T) {
	var buf []byte
	one := []int{0}
	if got := drain(t, BuildIndex(nil, one, NullsWild, 0, nil).Probe(Row{value.Int(1)}, one, &buf)); len(got) != 0 {
		t.Fatalf("empty build yields candidates: %v", got)
	}
	wild := []Row{{value.Null(1)}, {value.Null(2)}, {value.Null(1)}}
	if got := drain(t, BuildIndex(wild, one, NullsWild, 0, nil).Probe(Row{value.Int(1)}, one, &buf)); len(got) != 3 {
		t.Fatalf("all-wild build: candidates %v, want all 3", got)
	}
	if got := drain(t, BuildIndex(wild, one, NullsSkip, 0, nil).Probe(Row{value.Null(1)}, one, &buf)); len(got) != 0 {
		t.Fatalf("NullsSkip: a null probe finds %v", got)
	}
	if got := drain(t, BuildIndex(wild, one, NullsByMark, 0, nil).Probe(Row{value.Null(1)}, one, &buf)); fmt.Sprint(got) != "[0 2]" {
		t.Fatalf("NullsByMark: mark 1 finds %v, want [0 2]", got)
	}
	big := int64(1) << 53
	rows := []Row{{value.Int(big)}, {value.Int(7)}, {value.Int(big + 1)}, {value.Null(3)}}
	if got := drain(t, BuildIndex(rows, one, NullsWild, 0, nil).Probe(Row{value.Int(big)}, one, &buf)); fmt.Sprint(got) != "[0 3]" {
		t.Fatalf("ints beyond 2⁵³: candidates %v, want [0 3]", got)
	}
	if got := drain(t, ScanCursor(3)); fmt.Sprint(got) != "[0 1 2]" {
		t.Fatalf("ScanCursor(3) = %v", got)
	}
	var zero Cursor
	if _, ok := zero.Next(); ok {
		t.Fatal("zero Cursor is not exhausted")
	}
}

// TestContains checks Contains against RowKey identity — marks compare
// by mark, ints equal the floats they equal, a row of another arity is
// never contained — and that it allocates no more on 10 000 rows than
// on 10.
func TestContains(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tab := FromRows(2, keyRows(rng, 200, 2))
	for trial := 0; trial < 500; trial++ {
		r := keyRows(rng, 1, 2)[0]
		want := false
		for _, s := range tab.Rows() {
			want = want || value.RowKey(s) == value.RowKey(r)
		}
		if got := tab.Contains(r); got != want {
			t.Fatalf("Contains(%v) = %v, want %v", r, got, want)
		}
	}
	if tab.Contains(Row{value.Int(0)}) || tab.Contains(Row{value.Int(0), value.Int(0), value.Int(0)}) {
		t.Fatal("Contains matched a row of another arity")
	}
	allocs := func(n int) float64 {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{value.Int(int64(i)), value.Str("x")}
		}
		big := FromRows(2, rows)
		missing := Row{value.Int(-1), value.Str("x")}
		return testing.AllocsPerRun(20, func() { big.Contains(missing) })
	}
	if small, large := allocs(10), allocs(10000); large > small {
		t.Fatalf("Contains allocates %v times on 10 000 rows, %v on 10", large, small)
	}
}
