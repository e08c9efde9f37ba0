package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// runSeconds is how long one run measures when -seconds is not given;
// BENCHMARK.json's run_seconds repeats it.
const runSeconds = 10

// A run builds its system from nothing setupReps times, and goes on —
// up to setupMaxReps — until the repetitions add up to setupFloor, so
// that frontend_cold's 9 ms set-up is sampled dozens of times and not
// three; setup_s is the median of the repetitions.
const (
	setupReps    = 3
	setupMaxReps = 64
	setupFloor   = time.Second
)

// A failed, refused or wrong-answer op counts against every latency
// metric: its sample is at least this long.
const failPenaltyMs = 10_000

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // the unit tests' smoke mode: reduced sizes, one set-up, no warm-up, one timed block
	outDir   string // traces and scratch data directories
}

// workload is what the runner drives: a generator goroutine calls block
// over and over (closed loop, one client, no think time).
type workload interface {
	// open builds the system under test from nothing, the way a user
	// would before a first query: instance generation, store open and
	// first checkpoint, server start, parameter draws, prepare, and one
	// first execution of every statement. Calling it again discards
	// what the previous call built. Each call is one setup_s sample.
	open() error
	// prime computes the reference digests the answers are checked
	// against. It is the harness's work, not the system's, and is not
	// part of setup_s.
	prime() error
	// block runs the workload's fixed op list once.
	block(b *blockRec)
	// verify does the answer checking a block deferred, outside the
	// block's timed and allocation-counted window.
	verify(b *blockRec)
	// finish runs the end-of-run checks and reports a violation.
	finish() error
	close()
}

// opRec is one op of a block as measured.
type opRec struct {
	class int
	ms    float64
	seg   int // the op ran between probes[seg] and probes[seg+1]
}

// blockRec collects what one block did. Ops and probe walks alternate:
// the ops between two walks form a segment, and seal scales a segment's
// timings by the mean of its two walks.
type blockRec struct {
	ops    []opRec
	probes []float64 // ms per walk
	failed int
	alloc  uint64 // runtime.MemStats.TotalAlloc delta over the block
	// costUnits sums Stats.CostUnits, the engine's count of elementary
	// row operations (what MaxCostUnits budgets), as each answer reports it.
	costUnits int64

	// Filled by seal: per-class latencies in nominal-machine ms and as
	// measured, and the busy time (sum of op latencies) in both.
	lat, raw      [nClasses][]float64
	busy, rawBusy float64 // seconds
}

// probe takes one walk; the ops recorded after it belong to a new
// segment. Workloads call it after each group of ops, at a pair
// boundary, so the two sides of a price-of-correctness ratio share a
// segment.
func (b *blockRec) probe() { b.probes = append(b.probes, probeMs()) }

func (b *blockRec) record(class int, d time.Duration, ok bool) {
	v := ms(d)
	if !ok {
		b.failed++
		v = math.Max(v, failPenaltyMs)
	}
	if len(b.probes) == 0 {
		b.probe()
	}
	b.ops = append(b.ops, opRec{class: class, ms: v, seg: len(b.probes) - 1})
}

// fail marks an already-recorded op as failed after the fact (the
// served workload learns of a digest mismatch when it consults its
// mirror after the block).
func (b *blockRec) fail() { b.failed++ }

// seal closes the last segment with a walk if ops followed the last one
// and computes the normalised timings.
func (b *blockRec) seal() {
	if n := len(b.ops); n > 0 && b.ops[n-1].seg == len(b.probes)-1 {
		b.probe()
	}
	for _, o := range b.ops {
		f := probeNominalMs / ((b.probes[o.seg] + b.probes[o.seg+1]) / 2)
		b.raw[o.class] = append(b.raw[o.class], o.ms)
		b.lat[o.class] = append(b.lat[o.class], o.ms*f)
		b.rawBusy += o.ms / 1e3
		b.busy += o.ms * f / 1e3
	}
}

// qps is ops per busy second on the nominal machine; rawQPS as measured.
func (b *blockRec) qps() float64    { return perSecond(len(b.ops), b.busy) }
func (b *blockRec) rawQPS() float64 { return perSecond(len(b.ops), b.rawBusy) }

func perSecond(n int, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return float64(n) / s
}

// pinRuntime fixes the scheduler and collector settings every run uses,
// so two runs differ only in what they measure.
func pinRuntime() {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
}

// runBlock runs one block from a freshly collected heap, so every block
// starts from the same heap state, and reads the allocation counter at
// the block's two boundaries only. The workload's deferred answer
// checking runs after the second reading.
func runBlock(w workload) *blockRec {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b := &blockRec{}
	b.probe()
	w.block(b)
	b.seal()
	runtime.ReadMemStats(&m1)
	b.alloc = m1.TotalAlloc - m0.TotalAlloc
	w.verify(b)
	return b
}

func newWorkload(cfg runConfig) (workload, error) {
	if spec, ok := inprocSpecs[cfg.workload]; ok {
		return newInproc(spec, cfg.seed, cfg.short), nil
	}
	if cfg.workload == "served_rw" {
		return newServed(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// report is everything one run prints.
type report struct {
	Workload     string         `json:"workload"`
	Why          string         `json:"why"`
	Trace        bool           `json:"trace"`
	Env          envBlock       `json:"env"`
	Noisy        bool           `json:"noisy"`
	Correct      bool           `json:"correct"`
	OpsAttempted int            `json:"ops_attempted"`
	OpsFailed    int            `json:"ops_failed"`
	Blocks       int            `json:"timed_blocks"`
	ClassSamples map[string]int `json:"class_samples"`
	// BlockQPS and BlockMedians give every timed block's throughput and
	// per-class median latency (nominal-machine values), in order,
	// BlockAlloc its allocation per op and BlockProbe its median probe
	// walk, for judging a run by eye.
	BlockQPS     []float64            `json:"block_qps"`
	BlockMedians map[string][]float64 `json:"block_medians_ms"`
	BlockAlloc   []float64            `json:"block_alloc_kb_per_op"`
	BlockProbe   []float64            `json:"block_probe_ms"`
	CertainP     percentileNote       `json:"certain_percentile"`
	// SetupSamples are the repetitions setup_s is the median of, and
	// Phases where the run's wall time went, in seconds.
	SetupSamples []float64          `json:"setup_samples_s"`
	Phases       map[string]float64 `json:"phases_s"`
	Health       map[string]float64 `json:"harness"`
	// Diag holds the timings as measured, before normalisation, on
	// every run, traced or not.
	Diag      map[string]float64 `json:"diag"`
	Metrics   map[string]metric  `json:"metrics"`
	TraceFile string             `json:"trace_file,omitempty"`
	Error     string             `json:"error,omitempty"`
	Claim     *string            `json:"claim"`
}

// percentileNote says which percentile certain_p95_ms really is and how
// many samples support it.
type percentileNote struct {
	Used    float64 `json:"percentile"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timedBlocks runs blocks until the budget is used, stopping at the
// block boundary nearest to it; the content of a block never changes,
// only how many fit. fixed > 0 runs exactly that many instead.
func timedBlocks(w workload, seconds float64, fixed int) ([]*blockRec, time.Duration) {
	var blocks []*blockRec
	start := time.Now()
	for {
		t0 := time.Now()
		blocks = append(blocks, runBlock(w))
		last := time.Since(t0)
		if fixed > 0 {
			if len(blocks) >= fixed {
				break
			}
			continue
		}
		if len(blocks) >= 3 && time.Since(start)+last/2 > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}
	return blocks, time.Since(start)
}

// summarize turns timed blocks into the end-to-end metrics other than
// setup_s and into the diag.* timings: normalised ones that gate
// nothing, and every timing as the clock measured it.
func summarize(blocks []*blockRec) (map[string]float64, percentileNote) {
	m := map[string]float64{}
	var allocs uint64
	var cost int64
	ops := 0
	var rawQPS []float64
	for _, b := range blocks {
		allocs += b.alloc
		cost += b.costUnits
		ops += len(b.ops)
		rawQPS = append(rawQPS, b.rawQPS())
	}
	m["diag.throughput_qps"] = median(blockQPS(blocks))
	m["diag.throughput_raw_qps"] = median(rawQPS)
	if ops > 0 {
		m["alloc_kb_per_op"] = float64(allocs) / float64(ops) / 1024
		m["cost_units_per_op"] = float64(cost) / float64(ops)
	}
	classMedian := func(c int, raw bool) float64 {
		per := make([][]float64, len(blocks))
		for i, b := range blocks {
			per[i] = b.lat[c]
			if raw {
				per[i] = b.raw[c]
			}
		}
		return medianOfBlockMedians(per)
	}
	// The price of correctness is paired: the i-th standard and CERTAIN
	// samples of a query in a block are the two halves of one
	// back-to-back pair under one draw, so the ratio is taken per pair —
	// where machine drift cancels — then the median over a block's
	// pairs, then the median over blocks.
	var ratios, certain, certainRaw []float64
	for q := 0; q < nQueries; q++ {
		c := classOf(q, true)
		m[fmt.Sprintf("diag.q%d_certain_ms", q+1)] = classMedian(c, false)
		m[fmt.Sprintf("diag.q%d_certain_raw_ms", q+1)] = classMedian(c, true)
		per := make([][]float64, len(blocks))
		for i, b := range blocks {
			plus, orig := b.lat[c], b.lat[classOf(q, false)]
			for j := 0; j < len(plus) && j < len(orig); j++ {
				if orig[j] > 0 {
					per[i] = append(per[i], plus[j]/orig[j])
				}
			}
			certain = append(certain, plus...)
			certainRaw = append(certainRaw, b.raw[c]...)
		}
		if r := medianOfBlockMedians(per); r > 0 {
			ratios = append(ratios, r)
		}
	}
	m["price_of_correctness"] = geomean(ratios)
	p, used, beyond := tailPercentile(certain, 0.95)
	m["certain_p95_ms"] = p
	m["diag.certain_p95_raw_ms"], _, _ = tailPercentile(certainRaw, 0.95)
	return m, percentileNote{Used: used, Samples: len(certain), Beyond: beyond}
}

// blockQPS lists the blocks' throughputs, in order.
func blockQPS(blocks []*blockRec) []float64 {
	qps := make([]float64, len(blocks))
	for i, b := range blocks {
		qps[i] = b.qps()
	}
	return qps
}

// runWorkload performs one complete run and returns its report. The
// report's Metrics hold the end-to-end metrics, or with cfg.trace the
// per-layer metrics.
func runWorkload(cfg runConfig) *report {
	pinRuntime()
	def, _ := findWorkload(cfg.workload)
	rep := &report{Workload: cfg.workload, Why: def.Why, Trace: cfg.trace, Phases: map[string]float64{},
		ClassSamples: map[string]int{}, BlockMedians: map[string][]float64{}, Metrics: map[string]metric{}}
	fail := func(err error) *report {
		rep.Error = err.Error()
		rep.Correct = false
		if rep.OpsAttempted == 0 {
			rep.OpsAttempted, rep.OpsFailed = 1, 1
		}
		return rep
	}
	phaseStart := time.Now()
	phase := func(name string) {
		rep.Phases[name] = time.Since(phaseStart).Seconds()
		phaseStart = time.Now()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fail(err)
	}
	if err := probeInit(); err != nil {
		return fail(err)
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	defer w.close()

	spinBefore := spin(cfg.short)
	phase("init")
	reps, maxReps := setupReps, setupMaxReps
	if cfg.short || cfg.trace { // a traced run does not report setup_s
		reps, maxReps = 1, 1
	}
	// Set-up is timed as measured and scaled once, by the median of
	// the walks taken around the repetitions (three at each point): one
	// walk is too noisy a yardstick for a single half-second sample.
	var setupRaw, setupProbes []float64
	walks := func() {
		for i := 0; i < 3; i++ {
			setupProbes = append(setupProbes, probeMs())
		}
	}
	var total time.Duration
	for i := 0; i < reps || (total < setupFloor && i < maxReps); i++ {
		runtime.GC()
		walks()
		t0 := time.Now()
		if err := w.open(); err != nil {
			return fail(fmt.Errorf("setup: %w", err))
		}
		el := time.Since(t0)
		total += el
		setupRaw = append(setupRaw, el.Seconds())
	}
	walks()
	for _, raw := range setupRaw {
		rep.SetupSamples = append(rep.SetupSamples, raw*probeNominalMs/median(setupProbes))
	}
	phase("setup")
	if err := w.prime(); err != nil {
		return fail(fmt.Errorf("reference answers: %w", err))
	}
	phase("reference")
	var warm *blockRec
	if !cfg.short {
		warm = runBlock(w)
	}
	phase("warmup")

	var blocks []*blockRec
	var timed time.Duration
	var finalize func() (map[string]float64, error)
	switch {
	case cfg.trace:
		blocks, timed, finalize, err = tracedRun(cfg, w, rep)
		if err != nil {
			return fail(fmt.Errorf("traced run: %w", err))
		}
	case cfg.short:
		blocks, timed = timedBlocks(w, 0, 1)
	default:
		blocks, timed = timedBlocks(w, cfg.seconds, 0)
	}
	phase("measure")
	ferr := w.finish()
	spinAfter := spin(cfg.short)
	phase("finish")

	if warm != nil { // warm-up ops are checked like any other
		rep.OpsAttempted += len(warm.ops)
		rep.OpsFailed += warm.failed
	}
	rep.Blocks = len(blocks)
	rep.BlockQPS = blockQPS(blocks)
	var probes []float64
	for _, b := range blocks {
		rep.OpsAttempted += len(b.ops)
		rep.OpsFailed += b.failed
		rep.BlockProbe = append(rep.BlockProbe, median(b.probes))
		rep.BlockAlloc = append(rep.BlockAlloc, float64(b.alloc)/float64(len(b.ops))/1024)
		probes = append(probes, b.probes...)
		for c, lat := range b.lat {
			if len(lat) > 0 {
				name := className(c)
				rep.ClassSamples[name] += len(lat)
				rep.BlockMedians[name] = append(rep.BlockMedians[name], median(lat))
			}
		}
	}

	e2e, note := summarize(blocks)
	e2e["setup_s"] = median(rep.SetupSamples)
	e2e["diag.setup_raw_s"] = median(setupRaw)
	rep.CertainP = note
	drift := 100 * math.Abs(spinAfter-spinBefore) / spinBefore
	bspread := 100 * spread(rep.BlockQPS) // IQR of per-block throughput over its median
	rep.Health = map[string]float64{
		"spin_before_ms": spinBefore, "spin_after_ms": spinAfter, "spin_drift_pct": drift,
		"block_spread_pct": bspread, "timed_s": timed.Seconds(),
		"probe_ms": median(probes), "probe_spread_pct": 100 * spread(probes),
	}
	rep.Noisy = drift > 10 || bspread > 15
	rep.Diag = map[string]float64{}
	for _, d := range diagDefs {
		rep.Diag[d.Name] = e2e[d.Name]
	}

	if cfg.trace {
		layer, err := finalize()
		if err != nil {
			return fail(fmt.Errorf("traced run: %w", err))
		}
		for _, k := range []string{"spin_drift_pct", "block_spread_pct", "timed_s", "probe_ms", "probe_spread_pct"} {
			layer["harness."+k] = rep.Health[k]
		}
		for name, v := range rep.Diag { // from the traced run's untraced blocks
			layer[name] = v
		}
		for _, d := range perLayerDefs {
			rep.Metrics[d.Name] = metric{Value: layer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			rep.Metrics[d.Name] = metric{Value: e2e[d.Name], Unit: d.Unit}
		}
	}
	rep.Env = environment(cfg, w)
	rep.Correct = rep.OpsFailed == 0 && ferr == nil
	if ferr != nil {
		rep.Error = ferr.Error()
	}
	return rep
}

// scratchDir returns a fresh directory under the run's output directory.
func scratchDir(cfg runConfig, kind string) (string, error) {
	return os.MkdirTemp(cfg.outDir, kind+"-"+cfg.workload+"-*")
}
