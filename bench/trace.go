package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"certsql"
	"certsql/internal/eval"
	"certsql/internal/server/api"
	"certsql/internal/shard"
)

// The traced run: after set-up and the warm-up block it runs one more
// untraced block through the facade (the baseline that tracing overhead
// is measured against, and the source of the gc.* numbers), then the
// same op list stage by stage through the replica with a span around
// every layer call, then the one-off layer measurements (sharded
// re-runs, partitioning, load burst, clone, recovery).

// tracedBlocks is how many blocks a traced run replays with spans on.
const tracedBlocks = 2

// servedBurstLoads sizes the traced served run's closing burst of loads,
// which gives persist.update_* a sample count that supports a 95th
// percentile (8 + 198 updates are traced) and leaves two WAL records
// past the last checkpoint (20 + 198 loads, a checkpoint every fourth) for
// recovery to replay.
const servedBurstLoads = 198

// layerAcc collects what spans cannot carry: exact counters from
// eval.Stats and one-off measurements.
type layerAcc struct {
	samples map[string][]float64

	costOrig, costPlus, rowsPlus       [nQueries]int64
	hashJoins, nlJoins, viewHits, scat int64
	memHighWater                       int64
	mismatches                         int // replica answers that differ from the measured path's
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string][]float64{}} }

func (a *layerAcc) add(key string, v float64) { a.samples[key] = append(a.samples[key], v) }

func (a *layerAcc) med(key string) float64 { return median(a.samples[key]) }

func (a *layerAcc) noteEval(class int, st eval.Stats, rows int) {
	q := class / 2
	if class%2 == 1 {
		a.costPlus[q] += st.CostUnits
		a.rowsPlus[q] += int64(rows)
	} else {
		a.costOrig[q] += st.CostUnits
	}
	a.hashJoins += int64(st.HashJoins)
	a.nlJoins += int64(st.NestedLoopJoins)
	a.viewHits += int64(st.CacheHits)
	a.scat += int64(st.ShardScatters)
	if st.MemHighWaterBytes > a.memHighWater {
		a.memHighWater = st.MemHighWaterBytes
	}
}

func tracedRun(cfg runConfig, w workload, rep *report) ([]*blockRec, time.Duration, func() (map[string]float64, error), error) {
	n := tracedBlocks
	if cfg.short {
		n = 1
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced, timed := timedBlocks(w, 0, 1)
	runtime.ReadMemStats(&m1)
	gc := map[string]float64{ // the collector's activity over the untraced block
		"gc.cycles":         float64(m1.NumGC - m0.NumGC),
		"gc.pause_total_ms": float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		"gc.heap_inuse_mb":  float64(m1.HeapInuse) / (1 << 20),
	}

	var tr *tracer
	var acc *layerAcc
	var r *replica
	var traced []*blockRec
	mark := 0
	var err error
	switch w := w.(type) {
	case *inproc:
		tr, acc = newTracer(), newLayerAcc()
		r = newReplica(tr)
		traced, mark, err = w.traced(r, acc, n)
	case *served:
		tr, acc, r = w.tr, w.acc, w.rep
		traced, mark, err = w.traced(n)
	default:
		err = fmt.Errorf("no traced run for %T", w)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	for _, b := range traced {
		rep.OpsAttempted += len(b.ops)
		rep.OpsFailed += b.failed
	}
	rep.OpsFailed += acc.mismatches

	finalize := func() (map[string]float64, error) {
		tr.enable(false)
		m := layerMetrics(tr.spans, mark, acc, r, len(traced))
		for k, v := range gc {
			m[k] = v
		}
		if u, t := median(blockQPS(untraced)), median(blockQPS(traced)); u > 0 {
			m["harness.trace_overhead_pct"] = 100 * (u - t) / u
		}
		switch w := w.(type) {
		case *inproc:
			m["tpch.generate_ms"] = ms(w.genDur)
		case *served:
			m["tpch.generate_ms"] = ms(w.genDur)
			m["persist.recovery_ms"] = ms(w.recoveryDur)
		}
		rep.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		return m, writeTrace(rep.TraceFile, cfg, tr.spans, mark)
	}
	return untraced, timed, finalize, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traced replays the in-process workload through the replica: one pass
// to warm the replica's own plan cache and statistics, then n blocks
// that count, then the sharded re-runs and the shard-layer timings.
func (w *inproc) traced(r *replica, acc *layerAcc, n int) ([]*blockRec, int, error) {
	d := w.db.Internal()
	run := func(c, draw int) (*execResult, error) {
		params := w.draws[c/2][draw]
		if w.spec.adhoc {
			return r.adhoc(d, w.texts[c], params, w.spec.opts)
		}
		return r.prepared(d, w.db.CatalogVersion(), w.stmts[c].Text(), params, w.spec.opts)
	}
	r.tr.enable(true)
	for _, o := range w.ops {
		c := classOf(o.q, o.certain)
		r.tr.beginOp("warmup." + className(c))
		_, err := run(c, o.draw)
		r.tr.endOp()
		if err != nil {
			return nil, 0, fmt.Errorf("replica %s draw %d: %w", className(c), o.draw, err)
		}
	}
	mark := len(r.tr.spans)
	r.resetCounts()

	var blocks []*blockRec
	for i := 0; i < n; i++ {
		runtime.GC()
		b := &blockRec{}
		for i, o := range w.ops {
			c := classOf(o.q, o.certain)
			r.tr.beginOp(className(c))
			t0 := time.Now()
			res, err := run(c, o.draw)
			el := time.Since(t0)
			r.tr.endOp()
			// The replica's answer must be the facade's: both are
			// checked against the same reference digest.
			ok := err == nil && digestRows(res.rows.Rows()) == w.ref[c][o.draw]
			b.record(c, el, ok)
			if err == nil {
				acc.noteEval(c, res.stats, res.rows.Len())
			}
			w.probeAfter(b, i)
		}
		b.seal()
		blocks = append(blocks, b)
	}
	r.tr.enable(false)

	// The same CERTAIN ops re-run through the facade at Shards: 4, every
	// other option unchanged (on paper_sharded that is the measured
	// route itself). Ad-hoc statements are not part of this comparison.
	if !w.spec.adhoc {
		k4 := w.spec.opts
		k4.Shards = 4
		for draw := 0; draw < w.spec.draws; draw++ {
			for q := 0; q < nQueries; q++ {
				c := classOf(q, true)
				t0 := time.Now()
				res, err := w.exec(c, draw, k4)
				el := time.Since(t0)
				if err != nil || digestRows(res.Rows()) != w.ref[c][draw] {
					acc.mismatches++
				}
				acc.add(fmt.Sprintf("shard.q%d_k4_ms", q+1), ms(el))
			}
		}
	}
	lineitem := d.MustTable("lineitem").Rows()
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		parts := shard.Partition(lineitem, 4)
		acc.add("shard.partition_us", float64(time.Since(t0))/1e3)
		t0 = time.Now()
		kb := shard.BuildKeyed(lineitem, 2, 4) // l_suppkey, a nullable unification key
		acc.add("shard.build_keyed_us", float64(time.Since(t0))/1e3)
		runtime.KeepAlive(parts)
		runtime.KeepAlive(kb)
	}
	return blocks, mark, nil
}

// traced replays served_rw with spans on: n blocks of cycles, the load
// burst, and the clone, WAL and space measurements.
func (w *served) traced(n int) ([]*blockRec, int, error) {
	// Bring the replica's statistics to where the server's session is:
	// every table collected once, lineitem stale after each load.
	if _, err := w.rep.collect(governorFor(certsql.Options{}), w.mirror.Snapshot().DB); err != nil {
		return nil, 0, err
	}
	w.tr.enable(true)
	mark := len(w.tr.spans)
	w.rep.resetCounts()
	var blocks []*blockRec
	for i := 0; i < n; i++ {
		runtime.GC()
		b := &blockRec{}
		for j := 0; j < w.cyclesPerBlock; j++ {
			w.runCycle(b, true)
		}
		b.seal()
		blocks = append(blocks, b)
	}

	burst := &blockRec{}
	loads := servedBurstLoads
	if w.cfg.short {
		loads = 6
	}
	for i := 0; i < loads; i++ {
		cycle := w.cycle
		w.cycle++
		w.load(burst, cycle, true)
	}
	w.settle(burst)
	w.acc.mismatches += burst.failed

	snap := w.mirror.Snapshot()
	for i := 0; i < 5; i++ {
		w.tr.beginOp("table.clone")
		t0 := time.Now()
		clone := snap.DB.Clone()
		w.acc.add("table.clone_ms", ms(time.Since(t0)))
		w.tr.endOp()
		runtime.KeepAlive(clone)
	}
	w.tr.enable(false)

	// WAL bytes per loaded row: the live WAL holds exactly the records
	// since the last checkpoint.
	if records := w.loads % servedCheckpointEvery; records > 0 {
		_, name, err := walVersion(w.dir)
		if err != nil {
			return nil, 0, err
		}
		info, err := os.Stat(name)
		if err != nil {
			return nil, 0, err
		}
		w.acc.add("persist.wal_bytes_per_row", float64(info.Size())/float64(records*servedRowsPerLoad))
	}
	// Bytes stored per byte of user data: the data directory against a
	// CSV dump of the same catalog.
	csvDir, err := scratchDir(w.cfg, "csv")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(csvDir)
	if err := certsql.FromSnapshot(snap.DB, snap.Version, nil).DumpCSV(csvDir); err != nil {
		return nil, 0, err
	}
	stored, err := dirBytes(w.dir)
	if err != nil {
		return nil, 0, err
	}
	user, err := dirBytes(csvDir)
	if err != nil {
		return nil, 0, err
	}
	if user > 0 {
		w.acc.add("persist.bytes_per_user_byte", float64(stored)/float64(user))
	}
	return blocks, mark, nil
}

// replay runs a served op's statement on the mirror through the
// replica, in the cache state the server's session is in, then encodes
// the answer the way the handler does.
func (w *served) replay(class int, params certsql.Params, ok bool, wire digest) {
	snap := w.mirror.Snapshot()
	id := w.tr.begin("replica")
	res, err := w.rep.prepared(snap.DB, snap.Version, w.stmts[class].SQL, params, certsql.Options{Parallelism: 1})
	w.tr.end(id)
	if err != nil || (ok && digestRows(res.rows.Rows()) != wire) {
		w.acc.mismatches++
		return
	}
	var body []byte
	w.tr.in("server.encode", func() {
		resp := &api.QueryResponse{Columns: res.cols, Rows: api.EncodeRows(res.rows.Rows()),
			Certain: class%2 == 1, Version: snap.Version,
			Stats: api.Stats{CostUnits: res.stats.CostUnits, HashJoins: res.stats.HashJoins,
				NestedLoopJoins: res.stats.NestedLoopJoins, CacheHits: res.stats.CacheHits}}
		body, err = json.Marshal(resp)
	})
	if err == nil && class == classOf(3, true) {
		w.acc.add("server.response_kb", float64(len(body))/1024)
	}
	w.acc.noteEval(class, res.stats, res.rows.Len())
}

// layerMetrics turns spans (those of ops from index mark on) and the
// accumulator into per-layer metrics. A stage's time in an op is the
// summed self time of its spans in that op; the metric is the median
// over the ops in which the stage ran at all.
func layerMetrics(spans []span, mark int, acc *layerAcc, r *replica, blocks int) map[string]float64 {
	m := map[string]float64{}
	self := selfTimes(spans)
	type opInfo struct {
		class              string
		rootDur, clientDur int64
		handlerDur, repDur int64
		stage              map[string]int64
	}
	ops := map[int]*opInfo{}
	var coldCollect, updates []float64
	for i, s := range spans {
		if s.Name == "stats.collect.cold" {
			coldCollect = append(coldCollect, float64(self[i])/1e6)
		}
		if s.Name == "persist.update" {
			updates = append(updates, float64(s.End-s.Start)/1e6)
		}
		if i < mark {
			continue
		}
		o := ops[s.Op]
		if o == nil {
			o = &opInfo{stage: map[string]int64{}}
			ops[s.Op] = o
		}
		dur := s.End - s.Start
		switch {
		case s.Parent < 0:
			o.class, o.rootDur = s.Name, dur
		case s.Name == "server.client":
			o.clientDur = dur
		case s.Name == "server.handler":
			o.handlerDur = dur
		case s.Name == "replica":
			o.repDur = dur
		}
		name := s.Name
		if name == "plan.shard" { // per-execution shard planning is planner time
			name = "plan.optimize"
		}
		o.stage[name] += self[i]
	}
	stageMedian := func(stage string, div float64, class string) float64 {
		var xs []float64
		for _, o := range ops {
			if v, ok := o.stage[stage]; ok && (class == "" || o.class == class) {
				xs = append(xs, float64(v)/div)
			}
		}
		return median(xs)
	}
	m["sql.parse_us"] = stageMedian("sql.parse", 1e3, "")
	m["compile.compile_us"] = stageMedian("compile.compile", 1e3, "")
	m["analyze.plan_us"] = stageMedian("analyze.plan", 1e3, "")
	m["certain.translate_us"] = stageMedian("certain.translate", 1e3, "")
	m["plan.optimize_us"] = stageMedian("plan.optimize", 1e3, "")
	m["stats.collect_warm_us"] = stageMedian("stats.collect.warm", 1e3, "")
	m["stats.collect_cold_ms"] = median(coldCollect)
	m["plancache.get_us"] = stageMedian("plancache.get", 1e3, "")
	if r.lookups > 0 {
		m["plancache.hit_ratio"] = float64(r.hits) / float64(r.lookups)
	}
	for q := 0; q < nQueries; q++ {
		m[fmt.Sprintf("eval.q%d_orig_ms", q+1)] = stageMedian("eval.eval", 1e6, className(classOf(q, false)))
		m[fmt.Sprintf("eval.q%d_plus_ms", q+1)] = stageMedian("eval.eval", 1e6, className(classOf(q, true)))
		per := float64(blocks)
		m[fmt.Sprintf("eval.q%d_orig_cost_units", q+1)] = float64(acc.costOrig[q]) / per
		m[fmt.Sprintf("eval.q%d_plus_cost_units", q+1)] = float64(acc.costPlus[q]) / per
		m[fmt.Sprintf("eval.q%d_plus_rows", q+1)] = float64(acc.rowsPlus[q]) / per
		m[fmt.Sprintf("shard.q%d_k4_ms", q+1)] = acc.med(fmt.Sprintf("shard.q%d_k4_ms", q+1))
	}
	per := float64(blocks)
	m["eval.hash_joins"] = float64(acc.hashJoins) / per
	m["eval.nested_loop_joins"] = float64(acc.nlJoins) / per
	m["eval.view_cache_hits"] = float64(acc.viewHits) / per
	m["eval.shard_scatters"] = float64(acc.scat) / per
	m["eval.mem_highwater_kb"] = float64(acc.memHighWater) / 1024

	// eval.share: eval self time over what the op's caller waited for —
	// the client round trip when served, the whole op otherwise.
	var evalNs, opNs int64
	var handlerSelf, clientOver []float64
	for _, o := range ops {
		if _, isQuery := o.stage["eval.eval"]; !isQuery {
			continue
		}
		evalNs += o.stage["eval.eval"]
		if o.clientDur > 0 {
			opNs += o.clientDur
			handlerSelf = append(handlerSelf, float64(o.handlerDur-o.repDur)/1e6)
			clientOver = append(clientOver, float64(o.clientDur-o.handlerDur)/1e6)
		} else {
			opNs += o.rootDur
		}
	}
	if opNs > 0 {
		m["eval.share"] = float64(evalNs) / float64(opNs)
	}
	m["server.handler_self_ms"] = median(handlerSelf)
	m["server.client_overhead_ms"] = median(clientOver)
	// Encoding is reported for CERTAIN Q4, the 15 k-row answer; a median
	// over all classes would show only the small ones.
	m["server.encode_ms"] = stageMedian("server.encode", 1e6, className(classOf(3, true)))
	m["server.response_kb"] = acc.med("server.response_kb")

	m["persist.update_ms"] = median(updates)
	m["persist.update_p95_ms"], _, _ = tailPercentile(updates, 0.95)
	if ck := acc.samples["persist.update.checkpoint"]; len(ck) > 0 {
		m["persist.checkpoint_ms"] = median(ck) - acc.med("persist.update.plain")
	}
	for _, k := range []string{"persist.wal_bytes_per_row", "persist.bytes_per_user_byte", "table.clone_ms",
		"shard.partition_us", "shard.build_keyed_us"} {
		m[k] = acc.med(k)
	}
	return m
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// FirstCounted is the index of the first span that belongs to a
	// block that counts; spans before it are the replica's warm-up.
	FirstCounted int    `json:"first_counted_span"`
	Spans        []span `json:"spans"`
}

func writeTrace(path string, cfg runConfig, spans []span, mark int) error {
	data, err := json.Marshal(traceFile{Workload: cfg.workload, Seed: cfg.seed, FirstCounted: mark, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
