package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"certsql"
	"certsql/internal/persist"
	"certsql/internal/server"
	"certsql/internal/server/api"
	"certsql/internal/server/client"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// served_rw's constants. One cycle is one /v1/load followed by three
// rounds of Q1..Q4 standard/CERTAIN pairs under one parameter draw: the
// load bumps the catalog version, so round one compiles and plans
// afresh and rounds two and three hit the plan cache.
const (
	servedSF              = 0.01
	servedNullRate        = 0.02
	servedRounds          = 3
	servedRowsPerLoad     = 16
	servedCyclesPerBlock  = 4
	servedDraws           = servedCyclesPerBlock // cycle c uses draw c mod servedDraws: every block walks every draw
	servedCheckpointEvery = servedCyclesPerBlock // one synchronous checkpoint per block: all blocks do equal work
	servedSampleEvery     = 8                    // cycles re-executed on the in-RAM mirror
	// Marks for nulls in loaded rows, far above any mark the generator
	// mints, so a loaded null never aliases a stored one.
	servedMarkBase = int64(1) << 40
)

// cycleOps is one round of a cycle: Q1..Q4 as standard/CERTAIN pairs.
var cycleOps = blockOps(1)

// served drives certsqld in process: server.New over a persist.Store,
// behind a real loopback listener, with one client.Client in a closed
// loop. A table.Store fed the same loads is the oracle.
type served struct {
	cfg            runConfig
	sf             float64
	cyclesPerBlock int

	tpchCfg tpch.Config
	seedDB  *table.Database
	dir     string
	store   *persist.Store
	hs      *http.Server
	serveCh chan error
	cl      *client.Client
	texts   [nQueryClass]string
	stmts   [nQueryClass]*client.Stmt
	draws   [nQueries][]certsql.Params
	mirror  *table.Store
	// pending are the acknowledged loads the mirror has not seen yet,
	// with the wire digests of the cycles chosen for re-execution;
	// settle works them off outside the block's measured window.
	pending []pendingCycle

	cycle   int
	loads   int
	version uint64 // last acknowledged catalog version

	genDur, recoveryDur time.Duration

	// tr is set for a traced run: the handler and the store are then
	// wrapped in spans, and tracedCycles replays ops on the mirror.
	tr  *tracer
	rep *replica
	acc *layerAcc
}

func newServed(cfg runConfig) *served {
	w := &served{cfg: cfg, sf: servedSF, cyclesPerBlock: servedCyclesPerBlock}
	if cfg.short {
		w.sf, w.cyclesPerBlock = 0.001, 2
	}
	if cfg.trace {
		w.tr = newTracer()
		w.rep = newReplica(w.tr)
		w.acc = newLayerAcc()
	}
	return w
}

// open is what an operator does before a first answer: generate the
// seed instance, open the store on an empty directory (which writes and
// fsyncs the first checkpoint), start the server behind a loopback
// listener, connect, prepare the eight statements and run each once.
func (w *served) open() error {
	w.close() // a repeated set-up starts from nothing
	w.tpchCfg = tpch.Config{ScaleFactor: w.sf, Seed: instanceSeed, NullRate: servedNullRate}
	t0 := time.Now()
	w.seedDB = tpch.Generate(w.tpchCfg)
	w.genDur = time.Since(t0)

	var err error
	if w.dir, err = scratchDir(w.cfg, "data"); err != nil {
		return err
	}
	w.store, err = persist.Open(w.dir, func() (*table.Database, error) { return w.seedDB, nil },
		persist.Options{CheckpointEvery: servedCheckpointEvery})
	if err != nil {
		return err
	}
	w.version = w.store.Version()
	w.mirror = table.NewStore(w.seedDB)
	w.cycle, w.loads, w.pending = 0, 0, nil

	var catalog server.Catalog = w.store
	if w.tr != nil {
		catalog = &spannedCatalog{Catalog: w.store, tr: w.tr, acc: w.acc}
	}
	srv := server.New(server.Config{Seed: w.seedDB, Durable: catalog, Parallelism: 1})
	handler := srv.Handler()
	if w.tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			id := w.tr.begin("server.handler")
			inner.ServeHTTP(rw, r)
			w.tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: handler}
	w.serveCh = make(chan error, 1)
	go func() { w.serveCh <- w.hs.Serve(ln) }()
	w.cl = client.New("http://" + ln.Addr().String())

	if w.texts, err = queryTexts(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	if w.draws, err = drawParams(rng, w.tpchCfg.Sizes(), servedDraws, nil); err != nil {
		return err
	}
	ctx := context.Background()
	for c, text := range w.texts {
		if w.stmts[c], err = w.cl.Prepare(ctx, text, ""); err != nil {
			return fmt.Errorf("prepare %s: %w", className(c), err)
		}
		if _, err = w.stmts[c].Execute(ctx, w.draws[c/2][0], client.QueryOptions{}); err != nil {
			return fmt.Errorf("first %s: %w", className(c), err)
		}
	}
	return nil
}

// prime has nothing to compute: served_rw's answers change with every
// load, so its reference is the mirror, consulted by settle.
func (w *served) prime() error { return nil }

// spannedCatalog times the store's Update from outside, through the
// server.Catalog seam.
type spannedCatalog struct {
	server.Catalog
	tr  *tracer
	acc *layerAcc
}

func (c *spannedCatalog) Update(mutate func(db *table.Database) error) (uint64, error) {
	id := c.tr.begin("persist.update")
	t0 := time.Now()
	v, err := c.Catalog.Update(mutate)
	el := time.Since(t0)
	c.tr.end(id)
	if id >= 0 && err == nil {
		// The update that brings the WAL to servedCheckpointEvery
		// records also writes the checkpoint, synchronously.
		key := "persist.update.plain"
		if (v-1)%servedCheckpointEvery == 0 {
			key = "persist.update.checkpoint"
		}
		c.acc.add(key, ms(el))
	}
	return v, err
}

// loadRows makes the cycle's fresh lineitem rows from the seed: each is
// a stored row re-keyed to a random order, part and supplier, with the
// instance's null rate applied to its nullable columns.
func (w *served) loadRows(cycle int) [][]value.Value {
	rng := rand.New(rand.NewSource(w.cfg.seed*1_000_003 + int64(cycle)))
	sz := w.tpchCfg.Sizes()
	lineitem := w.seedDB.MustTable("lineitem")
	rows := make([][]value.Value, servedRowsPerLoad)
	for i := range rows {
		row := append([]value.Value(nil), lineitem.Row(rng.Intn(lineitem.Len()))...)
		row[0] = value.Int(int64(rng.Intn(sz.Orders) + 1))
		row[1] = value.Int(int64(rng.Intn(sz.Parts) + 1))
		row[2] = value.Int(int64(rng.Intn(sz.Suppliers) + 1))
		row[3] = value.Int(int64(100 + cycle)) // l_linenumber: past the generator's 1..7
		for col := range row {
			if col != 0 && col != 3 && rng.Float64() < servedNullRate {
				row[col] = value.Null(servedMarkBase + int64(cycle)*1024 + int64(i)*32 + int64(col))
			}
		}
		rows[i] = row
	}
	return rows
}

// wireForm returns rows as the server will store them: the JSON wire
// format keeps marks, dates and 64-bit integers exact but renders a
// whole-valued float as an integer, so the mirror must be fed the
// decoded form, not the generated one.
func wireForm(rows [][]value.Value) ([][]value.Value, error) {
	data, err := json.Marshal(api.EncodeRows(rows))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw [][]any
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	out := make([][]value.Value, len(raw))
	for i, r := range raw {
		if out[i], err = api.DecodeRow(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *served) block(b *blockRec) {
	for i := 0; i < w.cyclesPerBlock; i++ {
		w.runCycle(b, false)
	}
}

// pendingCycle is one acknowledged load awaiting the mirror and, when
// the cycle is a sampled one, the digests its reads brought back.
type pendingCycle struct {
	rows    [][]value.Value
	sampled bool
	draw    int
	wire    [nQueryClass]digest
}

// load performs one cycle's /v1/load and queues the same rows for the
// mirror. It reports the acknowledged version, or false when nothing
// was acknowledged.
func (w *served) load(b *blockRec, cycle int, traced bool) (uint64, bool) {
	rows, err := wireForm(w.loadRows(cycle))
	if err != nil {
		b.record(classLoad, 0, false)
		return 0, false
	}
	if traced {
		w.tr.beginOp("load")
	}
	t0 := time.Now()
	ver, err := w.cl.Load(context.Background(), "lineitem", rows)
	el := time.Since(t0)
	if traced {
		w.tr.endOp()
	}
	b.record(classLoad, el, err == nil && ver == w.version+1)
	if err != nil {
		return 0, false
	}
	w.loads++
	w.version = ver
	w.pending = append(w.pending, pendingCycle{rows: rows})
	return ver, true
}

// settle feeds the mirror the loads it has not seen, in order — the
// runs of loads between two sampled cycles in one Update each, since an
// Update clones the whole catalog — and checks each sampled cycle
// against the mirror while it holds exactly that cycle's loads. The
// clone and the slow reference route are the oracle's work, which is
// why verify runs this after the block's clock and allocation counter
// have been read.
func (w *served) settle(b *blockRec) {
	var batch [][]value.Value
	flush := func() {
		if len(batch) == 0 {
			return
		}
		_, err := w.mirror.Update(func(db *table.Database) error {
			for _, r := range batch {
				if err := db.Insert("lineitem", r); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.fail()
		}
		batch = batch[:0]
	}
	for _, p := range w.pending {
		batch = append(batch, p.rows...)
		if p.sampled {
			flush()
			w.checkAgainstMirror(b, p.draw, p.wire)
		}
	}
	flush()
	w.pending = w.pending[:0]
}

func (w *served) verify(b *blockRec) { w.settle(b) }

// runCycle is one load plus its rounds, with a probe walk after the
// load and after each round. traced adds the spans and the mirror
// replay of every query op, for which the mirror must be current.
func (w *served) runCycle(b *blockRec, traced bool) {
	ctx := context.Background()
	cycle := w.cycle
	w.cycle++
	ver, acked := w.load(b, cycle, traced)
	if !acked {
		return // the cycle's reads would all mismatch
	}
	if traced {
		w.settle(b)
	}
	b.probe()

	draw := cycle % servedDraws
	var first [nQueryClass]digest
	for round := 0; round < servedRounds; round++ {
		for _, o := range cycleOps {
			c := classOf(o.q, o.certain)
			params := w.draws[o.q][draw]
			clientSpan := 0
			if traced {
				w.tr.beginOp(className(c))
				clientSpan = w.tr.begin("server.client")
			}
			t0 := time.Now()
			res, err := w.stmts[c].Execute(ctx, params, client.QueryOptions{})
			el := time.Since(t0)
			if traced {
				w.tr.end(clientSpan)
			}
			ok := err == nil && res.Version == ver
			if err == nil {
				b.costUnits += res.Stats.CostUnits
			}
			if ok {
				// All three rounds read one version with one binding.
				d := digestRows(res.Rows)
				if round == 0 {
					first[c] = d
				} else {
					ok = d == first[c]
				}
			}
			b.record(c, el, ok)
			if traced {
				w.replay(c, params, ok, first[c])
				w.tr.endOp()
			}
		}
		b.probe()
	}
	if cycle%servedSampleEvery == 0 {
		if traced { // the mirror is at this cycle's version already
			w.checkAgainstMirror(b, draw, first)
		} else {
			p := &w.pending[len(w.pending)-1] // this cycle's load
			p.sampled, p.draw, p.wire = true, draw, first
		}
	}
}

// checkAgainstMirror re-executes a cycle's eight statements in process,
// on the reference route, against the mirror — which must be at the
// cycle's version — and compares with the digests that came over the
// wire. (Q1..Q4 return key columns only, so the wire's float-to-number
// round trip cannot change a value's kind under the digest.)
func (w *served) checkAgainstMirror(b *blockRec, draw int, wire [nQueryClass]digest) {
	snap := w.mirror.Snapshot()
	view := certsql.FromSnapshot(snap.DB, snap.Version, nil)
	for c, text := range w.texts {
		res, err := view.QueryWithOptions(text, w.draws[c/2][draw], refOptions)
		if err != nil || digestRows(res.Rows()) != wire[c] {
			b.fail()
		}
	}
}

// walVersion reads, from outside, the version of the store's last
// checkpoint: checkpoints name their fresh WAL after it.
func walVersion(dir string) (uint64, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) != 1 {
		return 0, "", fmt.Errorf("want one WAL in %s, found %d (%v)", dir, len(names), err)
	}
	var v uint64
	if _, err := fmt.Sscanf(filepath.Base(names[0]), "wal-%016x.log", &v); err != nil {
		return 0, "", err
	}
	return v, names[0], nil
}

// stopServer shuts the listener down and waits for Serve to return.
func (w *served) stopServer() error {
	if w.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.serveCh; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.hs = nil
	return err
}

// finish is the durability check: stop serving, close the store, copy
// the data directory, reopen the copy and require the last acknowledged
// version with exactly the mirror's lineitem rows. It also checks from
// the WAL's name that the expected checkpoints happened.
func (w *served) finish() error {
	if err := w.stopServer(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	if w.store == nil {
		return nil
	}
	err := w.store.Close()
	w.store = nil
	if err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	ckpt, _, err := walVersion(w.dir)
	if err != nil {
		return err
	}
	if want := uint64(1 + w.loads/servedCheckpointEvery*servedCheckpointEvery); ckpt != want {
		return fmt.Errorf("last checkpoint at version %d, want %d after %d loads", ckpt, want, w.loads)
	}
	w.recoveryDur, err = w.recoverCopy()
	return err
}

// recoverCopy reopens a copy of the data directory, checks it against
// the mirror, and reports how long the reopen (recovery replay) took.
func (w *served) recoverCopy() (time.Duration, error) {
	copyDir, err := scratchDir(w.cfg, "recover")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(copyDir)
	if err := copyTree(w.dir, copyDir); err != nil {
		return 0, err
	}
	var id int
	if w.tr != nil {
		id = w.tr.beginOp("persist.recover")
	}
	t0 := time.Now()
	st, err := persist.Open(copyDir, func() (*table.Database, error) {
		return nil, errors.New("recovery must not need the seed")
	}, persist.Options{CheckpointEvery: -1})
	el := time.Since(t0)
	if w.tr != nil {
		w.tr.end(id)
	}
	if err != nil {
		return el, fmt.Errorf("reopening data dir: %w", err)
	}
	defer st.Close()
	if st.Version() != w.version {
		return el, fmt.Errorf("recovered version %d, last acknowledged %d", st.Version(), w.version)
	}
	got := digestRows(st.Snapshot().DB.MustTable("lineitem").Rows())
	want := digestRows(w.mirror.Snapshot().DB.MustTable("lineitem").Rows())
	if got != want {
		return el, fmt.Errorf("recovered lineitem %+v differs from the acknowledged loads %+v", got, want)
	}
	return el, nil
}

func (w *served) close() {
	_ = w.stopServer() // best effort on an error path; finish reports the real one
	if w.store != nil {
		_ = w.store.Close()
		w.store = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
