package tpch_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// instanceDigest hashes db exactly: every relation in schema order, its
// rows in position order, each value as its kind and its key encoding
// (marks included), then the next null mark.
func instanceDigest(db *table.Database) string {
	h := sha256.New()
	var b []byte
	for _, name := range db.Schema.Names() {
		t := db.MustTable(name)
		b = append(b[:0], name...)
		b = strconv.AppendInt(append(b, 0), int64(t.Len()), 10)
		h.Write(b)
		for _, r := range t.Rows() {
			b = b[:0]
			for _, v := range r {
				b = value.AppendKey(append(b, byte(v.Kind())), v)
			}
			h.Write(b)
		}
	}
	h.Write(strconv.AppendInt(nil, db.NextNullMark(), 10))
	return hex.EncodeToString(h.Sum(nil))
}

// benchConfig is the instance the benchmark's workloads and the paper's
// Figure 4 runs use: sf 0.01, seed 3, 2 % nulls.
var benchConfig = tpch.Config{ScaleFactor: 0.01, Seed: 3, NullRate: 0.02}

// TestGenerateDigestGolden pins the generated instance bit for bit: the
// same rows in the same positions, the same null marks, the same next
// mark. Storage layout may change; the instance may not.
func TestGenerateDigestGolden(t *testing.T) {
	const want = "bc14feb57a3e04fbe2d184352a082e94f93465d89750503b455bf28eb9f4a70a"
	if got := instanceDigest(tpch.Generate(benchConfig)); got != want {
		t.Fatalf("sf 0.01, seed 3, 2%% instance digest %s, want %s", got, want)
	}
}

// BenchmarkGenerate times generating the sf 0.01, seed 3, 2 % instance,
// null injection included; -benchmem shows what building its tables
// allocates.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tpch.Generate(benchConfig)
	}
}
