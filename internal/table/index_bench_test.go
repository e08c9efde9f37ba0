package table

import (
	"fmt"
	"testing"

	"certsql/internal/value"
)

// BenchmarkIndex times the one hash index on 60 000 build rows holding
// 15 000 distinct keys (four rows a key, as lineitem holds per order):
// the build, and 60 000 probes that all hit or all miss. Keys are one
// int column, two int columns, one 24-byte string column, and one int
// column under NullsWild with every 500th build row null (the probes
// then merge the wild list). make bench-join runs it with -benchmem.
//
//	go test -run '^$' -bench BenchmarkIndex -benchmem ./internal/table
func BenchmarkIndex(b *testing.B) {
	const rows, keys = 60000, 15000
	shapes := []struct {
		name  string
		nulls NullKeys
		key   func(k int) Row
	}{
		{"int", NullsSkip, func(k int) Row { return Row{value.Int(int64(k))} }},
		{"int2", NullsSkip, func(k int) Row { return Row{value.Int(int64(k % 97)), value.Int(int64(k))} }},
		{"string", NullsSkip, func(k int) Row { return Row{value.Str(fmt.Sprintf("Customer#%015d", k))} }},
		{"wild", NullsWild, func(k int) Row { return Row{value.Int(int64(k))} }},
	}
	for _, sh := range shapes {
		build := make([]Row, rows)
		for i := range build {
			build[i] = sh.key(i % keys)
			if sh.nulls == NullsWild && i%500 == 0 {
				build[i] = Row{value.Null(int64(i))}
			}
		}
		cols := make([]int, len(build[1]))
		for i := range cols {
			cols[i] = i
		}
		hit, miss := make([]Row, rows), make([]Row, rows)
		for i := range hit {
			hit[i], miss[i] = sh.key((i*7919)%keys), sh.key(keys+i)
		}
		b.Run(sh.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildIndex(build, cols, sh.nulls, rows, nil)
			}
		})
		x := BuildIndex(build, cols, sh.nulls, rows, nil)
		for _, p := range []struct {
			name  string
			probe []Row
		}{{"hit", hit}, {"miss", miss}} {
			b.Run(sh.name+"/probe-"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				n := 0
				for i := 0; i < b.N; i++ {
					for _, r := range p.probe {
						c := x.Probe(r, cols)
						for _, ok := c.Next(); ok; _, ok = c.Next() {
							n++
						}
					}
				}
				if n == 0 && p.name == "hit" {
					b.Fatal("hit probes found nothing")
				}
			})
		}
	}
}
