package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"certsql"
	"certsql/internal/tpch"
)

// Op classes: Q1..Q4 × {standard, CERTAIN}, plus the served workload's
// /v1/load. classOf(q, certain) = 2*q + certain for q in 0..3.
const (
	nQueries    = 4
	nQueryClass = 2 * nQueries
	classLoad   = nQueryClass
	nClasses    = nQueryClass + 1
)

func classOf(q int, certain bool) int {
	if certain {
		return 2*q + 1
	}
	return 2 * q
}

func className(c int) string {
	if c == classLoad {
		return "load"
	}
	if c%2 == 1 {
		return fmt.Sprintf("q%d_certain", c/2+1)
	}
	return fmt.Sprintf("q%d_standard", c/2+1)
}

// instanceSeed generates every workload's TPC-H instance. The instance
// is the benchmark's fixed corpus, like a TPC-H data set at a given
// scale factor; -seed draws the query parameters and the write stream.
// It is a constant on purpose: nation has 25 rows and supplier as few
// as 10, so whether one of them received a null decides by itself
// whether raw Q4+ takes 1 ms or 10 s (README, "what the first attempt
// got wrong"). A per-seed instance would measure that lottery.
const instanceSeed = 3

// inprocSpec is the constant description of an in-process workload.
type inprocSpec struct {
	sf         float64
	nullRate   float64
	draws      int             // distinct parameter draws per query, walked once per block
	probeEvery int             // pairs between two probe walks
	opts       certsql.Options // the measured route
	adhoc      bool            // DB.QueryWithOptions instead of Prepared.Execute
	q4Band     bool            // keep Q4's unification fan-out in a fixed band (unify_raw)
}

// A probe walk after every fourth pair puts one every 0.3-0.6 s into the
// long queries of the prepared workloads; a walk costs 7 ms and
// frontend_cold's pairs 1 ms, so it walks after each query's forty-eight.
var inprocSpecs = map[string]inprocSpec{
	"paper_warm": {sf: 0.01, nullRate: 0.02, draws: 8, probeEvery: 4,
		opts: certsql.Options{Parallelism: 1}},
	"paper_sharded": {sf: 0.01, nullRate: 0.02, draws: 8, probeEvery: 4,
		opts: certsql.Options{Shards: 4, Parallelism: 2}},
	"unify_raw": {sf: 0.002, nullRate: 0.02, draws: 8, probeEvery: 4,
		opts: certsql.Options{NoOrSplit: true, Parallelism: 1}, q4Band: true},
	// sf 0.0001 is the smallest instance the generator makes (its row
	// floors apply). Even there eval is 59 % of an ad-hoc op (91 % at
	// sf 0.001): the front end costs only ~100 us, so this is as
	// front-end-heavy as a workload on this engine gets.
	"frontend_cold": {sf: 0.0001, nullRate: 0.02, draws: 48, probeEvery: 48,
		opts: certsql.Options{Parallelism: 1}, adhoc: true},
}

// refOptions is the reference route every timed answer is checked
// against: the paper-faithful plan exactly as translation produced it,
// default translation, one worker, unsharded.
var refOptions = certsql.Options{NaivePlanner: true, Parallelism: 1}

// Raw Q4+ is a nested loop whose cost is exactly linear in how many
// parts carry the drawn colour and how many suppliers sit in the drawn
// nation. unify_raw re-draws Q4 under the seed's rng until that fan-out
// is in this band, so the op measures the operator and not the draw.
// Both are counted by scanning the tables here, not by the engine.
const (
	q4BandSuppliers = 1
	q4BandPartsMin  = 12
	q4BandPartsMax  = 14
)

// qop is one query op of a block: query index 0..3, mode, draw index.
type qop struct {
	q       int
	certain bool
	draw    int
}

// blockOps is the fixed op list of one block: Q1 under every draw in
// turn, then Q2, Q3 and Q4, each (query, draw) as a back-to-back
// standard/CERTAIN pair, so the two sides of a price-of-correctness
// ratio see the same machine state. Which side goes first alternates so
// neither always runs on the other's warm caches. The order is query by
// query, not draw by draw, because a 0.5 ms Q2 that follows an 80 ms Q1
// pair measures mostly what Q1 left in the caches: draw-major blocks
// gave Q2 a run-to-run spread of 20 %, query-major ones 4 %.
func blockOps(draws int) []qop {
	ops := make([]qop, 0, draws*nQueryClass)
	for q := 0; q < nQueries; q++ {
		for d := 0; d < draws; d++ {
			first := (d+q)%2 == 1
			ops = append(ops, qop{q, first, d}, qop{q, !first, d})
		}
	}
	return ops
}

// queryTexts returns the eight statement texts, indexed by class.
func queryTexts() ([nQueryClass]string, error) {
	var texts [nQueryClass]string
	for q, id := range tpch.AllQueries {
		texts[classOf(q, false)] = id.SQL()
		c, err := certsql.WithMode(id.SQL(), "certain")
		if err != nil {
			return texts, err
		}
		texts[classOf(q, true)] = c
	}
	return texts, nil
}

// drawParams draws n parameter bindings per query under rng, distinct
// while the query's parameter space allows it. accept, when non-nil,
// filters Q4 draws.
func drawParams(rng *rand.Rand, sz tpch.Sizes, n int, acceptQ4 func(certsql.Params) bool) ([nQueries][]certsql.Params, error) {
	var out [nQueries][]certsql.Params
	for q, id := range tpch.AllQueries {
		seen := map[string]bool{}
		for len(out[q]) < n {
			var p certsql.Params
			var key string
			ok := false
			for try := 0; try < 4000 && !ok; try++ {
				p = id.Params(rng, sz)
				if q == 3 && acceptQ4 != nil && !acceptQ4(p) {
					continue
				}
				// Duplicates become acceptable once the space is
				// exhausted (25 nations, a handful of suppliers).
				key = fmt.Sprint(p)
				ok = !seen[key] || try >= 64
			}
			if !ok {
				return out, fmt.Errorf("no acceptable %s draw after 4000 tries", id)
			}
			seen[key] = true
			out[q] = append(out[q], p)
		}
	}
	return out, nil
}

// q4FanOut counts, by scanning the tables, how many parts carry the
// colour and how many suppliers sit in the nation of a Q4 draw.
func q4FanOut(db *certsql.DB, p certsql.Params) (parts, suppliers int) {
	color, _ := p["color"].(string)
	nation, _ := p["nation"].(string)
	d := db.Internal()
	for _, r := range d.MustTable("part").Rows() {
		if !r[1].IsNull() && strings.Contains(r[1].AsString(), color) {
			parts++
		}
	}
	var key int64 = -1
	for _, r := range d.MustTable("nation").Rows() {
		if !r[1].IsNull() && r[1].AsString() == nation {
			key = r[0].AsInt()
		}
	}
	for _, r := range d.MustTable("supplier").Rows() {
		if !r[3].IsNull() && r[3].AsInt() == key {
			suppliers++
		}
	}
	return parts, suppliers
}

// inproc runs the four workloads that call the facade in process.
type inproc struct {
	spec  inprocSpec
	seed  int64
	db    *certsql.DB
	cfg   tpch.Config
	texts [nQueryClass]string
	stmts [nQueryClass]*certsql.Prepared
	draws [nQueries][]certsql.Params
	ref   [nQueryClass][]digest
	ops   []qop

	genDur time.Duration
}

func newInproc(spec inprocSpec, seed int64, short bool) *inproc {
	if short {
		// Small enough for a unit test. The Q4 band is tied to the
		// sf 0.002 instance, so the smoke run goes without it.
		spec.draws, spec.sf, spec.q4Band = 2, 0.001, false
	}
	return &inproc{spec: spec, seed: seed}
}

// open is what a user does before a first answer: generate the
// instance, draw the parameters, prepare the eight statements and run
// each once on the measured route (the first execution pays for the
// statistics scan and the plan).
func (w *inproc) open() error {
	w.cfg = tpch.Config{ScaleFactor: w.spec.sf, Seed: instanceSeed, NullRate: w.spec.nullRate}
	t0 := time.Now()
	w.db = certsql.OpenTPCH(w.cfg)
	w.genDur = time.Since(t0)

	var err error
	if w.texts, err = queryTexts(); err != nil {
		return err
	}
	var accept func(certsql.Params) bool
	if w.spec.q4Band {
		accept = func(p certsql.Params) bool {
			parts, supp := q4FanOut(w.db, p)
			return supp == q4BandSuppliers && parts >= q4BandPartsMin && parts <= q4BandPartsMax
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	if w.draws, err = drawParams(rng, w.cfg.Sizes(), w.spec.draws, accept); err != nil {
		return err
	}
	w.ops = blockOps(w.spec.draws)
	for c, text := range w.texts {
		if w.stmts[c], err = w.db.Prepare(text); err != nil {
			return fmt.Errorf("prepare %s: %w", className(c), err)
		}
		if _, err = w.exec(c, 0, w.spec.opts); err != nil {
			return fmt.Errorf("first %s: %w", className(c), err)
		}
	}
	return nil
}

// prime computes the reference digests, one per (class, draw), on the
// reference route.
func (w *inproc) prime() error {
	for c := range w.texts {
		w.ref[c] = make([]digest, w.spec.draws)
		for d := 0; d < w.spec.draws; d++ {
			res, err := w.exec(c, d, refOptions)
			if err != nil {
				return fmt.Errorf("reference %s draw %d: %w", className(c), d, err)
			}
			w.ref[c][d] = digestRows(res.Rows())
		}
	}
	return nil
}

// exec runs one statement as its caller sees it: a facade call.
func (w *inproc) exec(class, draw int, opts certsql.Options) (*certsql.Result, error) {
	params := w.draws[class/2][draw]
	if w.spec.adhoc {
		return w.db.QueryWithOptions(w.texts[class], params, opts)
	}
	return w.stmts[class].ExecuteWithOptions(params, opts)
}

func (w *inproc) block(b *blockRec) {
	for i, o := range w.ops {
		c := classOf(o.q, o.certain)
		t0 := time.Now()
		res, err := w.exec(c, o.draw, w.spec.opts)
		el := time.Since(t0)
		ok := err == nil && digestRows(res.Rows()) == w.ref[c][o.draw]
		b.record(c, el, ok)
		if err == nil {
			b.costUnits += res.Stats.CostUnits
		}
		w.probeAfter(b, i)
	}
}

// probeAfter takes a probe walk when op i closes a group of probeEvery
// pairs.
func (w *inproc) probeAfter(b *blockRec, i int) {
	if (i+1)%(2*w.spec.probeEvery) == 0 {
		b.probe()
	}
}

func (w *inproc) verify(*blockRec) {} // every op is checked as it returns
func (w *inproc) finish() error    { return nil }
func (w *inproc) close()           {}
