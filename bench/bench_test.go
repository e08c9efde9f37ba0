package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"certsql/internal/value"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the rule must sort
		}
		return xs
	}
	// 200 samples are the fewest that support a 95th percentile with
	// ten samples beyond it.
	v, p, beyond := tailPercentile(seq(200), 0.95)
	if v != 190 || p != 0.95 || beyond != 10 {
		t.Errorf("n=200: got value %v percentile %v beyond %d, want 190 0.95 10", v, p, beyond)
	}
	// One fewer and the rule falls back to the highest percentile that
	// still has ten beyond it.
	v, p, beyond = tailPercentile(seq(199), 0.95)
	if v != 189 || beyond != 10 || math.Abs(p-189.0/199) > 1e-12 {
		t.Errorf("n=199: got value %v percentile %v beyond %d, want 189 %v 10", v, p, beyond, 189.0/199)
	}
	v, p, beyond = tailPercentile(seq(1000), 0.95)
	if v != 950 || p != 0.95 || beyond != 50 {
		t.Errorf("n=1000: got %v %v %d, want 950 0.95 50", v, p, beyond)
	}
	// Ten samples or fewer support no percentile: the maximum, flagged.
	v, p, beyond = tailPercentile(seq(10), 0.95)
	if v != 10 || p != 1 || beyond != 0 {
		t.Errorf("n=10: got %v %v %d, want 10 1 0", v, p, beyond)
	}
	if v, _, _ := tailPercentile(nil, 0.95); v != 0 {
		t.Errorf("no samples: got %v, want 0", v)
	}
}

func TestMedianOfBlockMedians(t *testing.T) {
	blocks := [][]float64{
		{1, 2, 300}, // median 2: one slow op does not move the block
		{9, 9, 9},   // a whole slow block: median 9
		{3, 1, 2},   // median 2
		{},          // a block without the class is skipped
		{4, 2},      // median 3
	}
	if got := medianOfBlockMedians(blocks); got != 2.5 { // medians 2 9 2 3 → sorted 2 2 3 9
		t.Errorf("got %v, want 2.5", got)
	}
	if got := medianOfBlockMedians(nil); got != 0 {
		t.Errorf("no blocks: got %v, want 0", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean([]float64{0.25, 1, 4, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(.25,1,4,1) = %v, want 1", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("a zero ratio must zero the mean, got %v", got)
	}
}

// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75].
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("1..10: got %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("3,1,4,1,5,9,2,6: got %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "a1", Start: 15, End: 25},
		{ID: 5, Parent: 0, Name: "d", Start: 35, End: 38}, // inside a and b
	}
	// op: 100 - ([10,60] ∪ [90,100]) = 100 - 60 = 40; a: 30 - 10 = 20.
	want := []int64{40, 20, 30, 30, 10, 3}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("ignored"); id != -1 {
		t.Fatalf("a tracer that is off recorded span %d", id)
	}
	tr.enable(true)
	tr.beginOp("q1_certain")
	tr.in("plancache.get", func() {})
	h := tr.begin("server.handler")
	tr.in("persist.update", func() {})
	tr.end(h)
	tr.endOp()
	parents := map[string]string{}
	for _, s := range tr.spans {
		p := "-"
		if s.Parent >= 0 {
			p = tr.spans[s.Parent].Name
		}
		parents[s.Name] = p
		if s.End < s.Start || s.Op != 0 {
			t.Errorf("span %+v: bad interval or op", s)
		}
	}
	want := map[string]string{"q1_certain": "-", "plancache.get": "q1_certain",
		"server.handler": "q1_certain", "persist.update": "server.handler"}
	if !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	rows := [][]value.Value{
		{value.Int(1), value.Str("ab"), value.Null(7)},
		{value.Int(2), value.Str("a"), value.Float(2.5)},
		{value.Int(3), value.Str(""), value.Date(9000)},
		{value.Int(1), value.Str("ab"), value.Null(7)}, // a duplicate row
	}
	perm := [][]value.Value{rows[2], rows[3], rows[0], rows[1]}
	if digestRows(rows) != digestRows(perm) {
		t.Error("digest depends on row order")
	}
	// Bag semantics: dropping one copy of a duplicate must show.
	if digestRows(rows) == digestRows(rows[:3]) {
		t.Error("digest ignores a dropped duplicate")
	}
	changed := [][]value.Value{rows[0], rows[1], rows[2], {value.Int(1), value.Str("ab"), value.Null(8)}}
	if digestRows(rows) == digestRows(changed) {
		t.Error("digest ignores a changed null mark")
	}
	// Column boundaries matter: ("ab","c") is not ("a","bc").
	a := [][]value.Value{{value.Str("ab"), value.Str("c")}}
	b := [][]value.Value{{value.Str("a"), value.Str("bc")}}
	if digestRows(a) == digestRows(b) {
		t.Error("digest ignores column boundaries")
	}
	if (digestRows(nil) != digest{}) {
		t.Error("empty result must have the zero digest")
	}
}

// A block's timings are scaled segment by segment: the ops between two
// probe walks by the mean of the two, pairs staying in one segment.
func TestSealNormalisesBySegment(t *testing.T) {
	b := &blockRec{probes: []float64{probeNominalMs, 3 * probeNominalMs, 3 * probeNominalMs}}
	b.ops = []opRec{
		{class: classOf(0, false), ms: 10, seg: 0}, // walks 1x and 3x nominal: the machine is 2x slow
		{class: classOf(0, true), ms: 20, seg: 0},
		{class: classOf(0, true), ms: 30, seg: 1}, // 3x slow
	}
	b.seal() // no op follows the last walk: seal must not take another
	if len(b.probes) != 3 {
		t.Fatalf("seal took a walk although the last segment is closed: %d probes", len(b.probes))
	}
	if got := b.lat[classOf(0, false)]; len(got) != 1 || got[0] != 5 {
		t.Errorf("standard: %v, want [5]", got)
	}
	if got := b.lat[classOf(0, true)]; len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Errorf("certain: %v, want [10 10]", got)
	}
	if got := b.raw[classOf(0, true)]; got[0] != 20 || got[1] != 30 {
		t.Errorf("raw certain: %v, want [20 30]", got)
	}
	if math.Abs(b.busy-0.025) > 1e-12 || math.Abs(b.rawBusy-0.060) > 1e-12 {
		t.Errorf("busy %v raw %v, want 0.025 0.060", b.busy, b.rawBusy)
	}
	if math.Abs(b.qps()-120) > 1e-9 || math.Abs(b.rawQPS()-50) > 1e-9 {
		t.Errorf("qps %v raw %v, want 120 50", b.qps(), b.rawQPS())
	}

	// Ops recorded after the last walk get a closing one from seal, and
	// a failed op is a failure and a penalty sample.
	if err := probeInit(); err != nil {
		t.Fatal(err)
	}
	open := &blockRec{}
	open.record(classLoad, 2*time.Millisecond, false)
	open.seal()
	if len(open.probes) != 2 || open.failed != 1 || open.raw[classLoad][0] != failPenaltyMs {
		t.Errorf("open block: %d probes, %d failed, raw %v", len(open.probes), open.failed, open.raw[classLoad])
	}
}

func TestBlockOpsPairsBackToBack(t *testing.T) {
	ops := blockOps(3)
	if len(ops) != 3*nQueryClass {
		t.Fatalf("%d ops, want %d", len(ops), 3*nQueryClass)
	}
	firstCertain := 0
	for i := 0; i < len(ops); i += 2 {
		a, b := ops[i], ops[i+1]
		if a.q != b.q || a.draw != b.draw || a.certain == b.certain {
			t.Errorf("ops %d,%d are not a standard/CERTAIN pair of one draw: %+v %+v", i, i+1, a, b)
		}
		if a.certain {
			firstCertain++
		}
	}
	if firstCertain != len(ops)/4 {
		t.Errorf("CERTAIN goes first in %d of %d pairs, want half", firstCertain, len(ops)/2)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The name lists in BENCHMARK.json and in the harness are one list, and
// the file stays inside the limits the driver refuses a file beyond.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with `go run . -manifest > ../BENCHMARK.json` in bench/")
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside the driver's limits", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadDefs {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range endToEndDefs {
		name("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s, unit s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		name("per-layer", d.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

// Every workload, one reduced block, both kinds of run: every metric
// the manifest names is emitted with its unit, and no op fails.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 7, seconds: 1, trace: trace, short: true, outDir: t.TempDir()}
			rep := runWorkload(cfg)
			if rep.Error != "" {
				t.Fatalf("%s trace=%v: %s", w.Name, trace, rep.Error)
			}
			if !rep.Correct || rep.OpsFailed != 0 || rep.OpsAttempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, rep.Correct, rep.OpsFailed, rep.OpsAttempted)
			}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, want %d", w.Name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s is %v", w.Name, trace, d.Name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(rep.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
			if rep.Env.NProc < 1 || rep.Env.GoVersion == "" || rep.Env.Seed != 7 || rep.Env.OpsPerBlk < 1 {
				t.Errorf("%s: incomplete environment block %+v", w.Name, rep.Env)
			}
		}
	}
}

// paper_sharded must be checked against exactly paper_warm's reference
// answers, and unify_raw's against the default translation's: all use
// one reference route, so equal seeds must give equal digests.
func TestReferenceDigestsAreSharedAcrossRoutes(t *testing.T) {
	a := newInproc(inprocSpecs["paper_warm"], 11, true)
	b := newInproc(inprocSpecs["paper_sharded"], 11, true)
	for _, w := range []*inproc{a, b} {
		if err := w.open(); err != nil {
			t.Fatal(err)
		}
		if err := w.prime(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(a.ref, b.ref) || !reflect.DeepEqual(a.draws, b.draws) {
		t.Error("paper_sharded and paper_warm disagree on draws or reference digests for one seed")
	}
}
