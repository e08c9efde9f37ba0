package difftest

import (
	"testing"

	"certsql/internal/qgen"
	"certsql/internal/schema"
	"certsql/internal/table"
	"certsql/internal/value"
)

// FuzzCertainPipeline drives the full oracle from a generator seed: the
// fuzzer explores the seed space, the generators map each seed to a
// (database, query) case, and every invariant of Check must hold.
// Failures are reproduced from the seed alone:
//
//	go run ./cmd/fuzzcert -seed <seed> -cases 1
func FuzzCertainPipeline(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep := CheckSeed(seed, Options{})
		if rep.Failed() {
			t.Fatal(rep.Summary())
		}
	})
}

// FuzzAnalyzerSoundness biases the generator towards fully NOT NULL
// schemas so the analyzer's safe verdict — and with it the
// analyzer-soundness invariant (plain evaluation = cert on safe plans)
// — is exercised on most cases rather than rarely.
func FuzzAnalyzerSoundness(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	opts := Options{Tuning: qgen.Tuning{NullFreeProb: 0.6}}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rep := CheckSeed(seed, opts)
		if rep.Failed() {
			t.Fatal(rep.Summary())
		}
	})
}

// fuzzDB is the fixed incomplete database FuzzCompileEval runs arbitrary
// SQL against: two relations, a key, nullable columns, a Codd null and a
// repeated mark.
func fuzzDB() *table.Database {
	sch := schema.New()
	sch.MustAdd(&schema.Relation{
		Name: "r0",
		Attrs: []schema.Attribute{
			{Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindString, Nullable: true},
		},
		Key: []int{0},
	})
	sch.MustAdd(&schema.Relation{
		Name: "r1",
		Attrs: []schema.Attribute{
			{Name: "c", Type: value.KindInt, Nullable: true},
			{Name: "d", Type: value.KindFloat, Nullable: true},
		},
	})
	db := table.NewDatabase(sch)
	rows := map[string][]table.Row{
		"r0": {
			{value.Int(1), value.Str("x")},
			{value.Int(2), value.Null(1)},
		},
		"r1": {
			{value.Int(1), value.Float(0.5)},
			{value.Null(2), value.Null(3)},
			{value.Null(2), value.Float(1.5)}, // repeated mark ⊥2
		},
	}
	for _, name := range []string{"r0", "r1"} {
		for _, r := range rows[name] {
			if err := db.Insert(name, r); err != nil {
				panic(err)
			}
		}
	}
	db.SetNextNullMark(4)
	return db
}

// FuzzCompileEval feeds arbitrary SQL text to the whole pipeline over a
// fixed incomplete database. Text outside the supported fragment is
// skipped; text inside it must satisfy every oracle invariant, and
// nothing may panic.
func FuzzCompileEval(f *testing.F) {
	for _, s := range []string{
		"SELECT a FROM r0",
		"SELECT CERTAIN b FROM r0 WHERE NOT EXISTS (SELECT * FROM r1 WHERE c = a)",
		"SELECT POSSIBLE a FROM r0 WHERE b IS NULL",
		"SELECT DISTINCT d FROM r1 WHERE c IN (SELECT a FROM r0)",
		"SELECT a FROM r0 UNION SELECT c FROM r1",
		"SELECT a FROM r0 WHERE a > (SELECT COUNT(*) FROM r1)",
		"WITH v AS (SELECT c FROM r1) SELECT * FROM v EXCEPT SELECT a FROM r0",
		"SELECT c, SUM(d) FROM r1 GROUP BY c HAVING COUNT(*) > 1 ORDER BY 1 LIMIT 2",
		"SELECT b FROM r0 WHERE b LIKE 'x%' OR b IS NOT NULL",
	} {
		f.Add(s)
	}
	db := fuzzDB()
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			t.Skip("pathologically long input")
		}
		rep := Check(db, text, Options{})
		if rep.Failed() {
			t.Fatal(rep.Summary())
		}
	})
}
