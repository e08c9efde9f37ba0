// Command certsqld serves the certain-answer engine over HTTP: a
// long-running process with per-session catalogs, a compiled-plan
// cache, snapshot-consistent reads and admission control. See
// DESIGN.md §11 for the architecture and the README for a curl
// walkthrough.
//
// Usage:
//
//	certsqld -addr 127.0.0.1:7583 -sf 0.001 -nullrate 0.03
//
// The process prints one "certsqld listening on http://host:port" line
// to stdout once the listener is up (with -addr :0 the kernel picks
// the port, so scripts parse this line), serves until SIGINT/SIGTERM,
// then drains in-flight queries and exits 0.
//
// With -data-dir the default session is backed by the crash-safe
// persistent store (internal/persist): every /v1/load is written ahead
// to a checksummed WAL before it is acknowledged, so acknowledged
// loads survive kill -9. The listener comes up immediately in a
// recovering state — /healthz answers 503 "recovering" and data
// endpoints answer 503 {"code":"recovering"} — while the store opens
// (replaying the WAL) in the background, then flips live. On first
// start the directory is initialized from the usual seed flags
// (-sf/-nullrate/-seed, or -data CSV, or -empty); on later starts
// those flags are ignored and the recovered catalog wins. Inspect a
// data directory offline with `certsql fsck <dir>`.
//
// Endpoints:
//
//	POST /v1/query     ad-hoc SQL (plan-cached under the hood)
//	POST /v1/prepare   register a statement, returns a handle
//	POST /v1/execute   run a prepared handle
//	POST /v1/load      append rows, publishing a new snapshot version
//	GET  /v1/catalog   schema + row counts at the current version
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      text metrics (requests, latencies, cache, queue)
//	GET  /debug/pprof  the standard Go profiler endpoints
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/persist"
	"certsql/internal/server"
	"certsql/internal/table"
	"certsql/internal/tpch"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7583", "listen address (use :0 for a kernel-assigned port)")
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor for the seed catalog")
		nullRate = flag.Float64("nullrate", 0.03, "null rate for nullable attributes")
		seed     = flag.Int64("seed", 1, "random seed for the generated instance")
		dataDir  = flag.String("data", "", "load the seed catalog from a directory of CSV files instead of generating")
		empty    = flag.Bool("empty", false, "start with an empty TPC-H schema (load data via /v1/load)")

		persistDir = flag.String("data-dir", "", "durable data directory: back the default session with the crash-safe persistent store (initialized from the seed flags on first start, recovered via WAL replay after)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "WAL records between checkpoints of the persistent store (0 = default 64, negative = only at open)")

		maxConc  = flag.Int("max-concurrent", 4, "queries evaluating at once")
		maxQueue = flag.Int("max-queue", 0, "queries waiting for a slot before 429 (0 = 2x max-concurrent)")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-query evaluation deadline (0 = none)")
		maxTime  = flag.Duration("max-timeout", 0, "ceiling on request timeout overrides (0 = uncapped)")
		rowBudg  = flag.Int("max-rows", 0, "default row budget for intermediate results (0 = guard default 4M)")
		costBudg = flag.Int64("max-cost", 0, "default cost budget in elementary row operations (0 = guard default)")
		memBudg  = flag.Int64("max-mem", 256<<20, "default estimated-bytes memory budget (0 = unlimited)")
		par      = flag.Int("parallelism", 1, "executor workers per query (0 = GOMAXPROCS); cross-query concurrency comes from -max-concurrent")
		shards   = flag.Int("shards", 1, "engine shards probe rows are routed to by content hash (1 = unsharded); results are identical at every value")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for in-flight queries")
	)
	flag.Parse()

	cfg := server.Config{
		MaxConcurrent: *maxConc,
		MaxQueue:      *maxQueue,
		DefaultLimits: guard.Limits{
			MaxRows:      *rowBudg,
			MaxCostUnits: *costBudg,
			MaxMemBytes:  *memBudg,
		},
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTime,
		Parallelism:    *par,
		Shards:         *shards,
	}

	var srv *server.Server
	if *persistDir == "" {
		seedDB, err := seedCatalog(*dataDir, *empty, *sf, *nullRate, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "certsqld:", err)
			return 1
		}
		cfg.Seed = seedDB
		srv = server.New(cfg)
	} else {
		// Durable mode: the listener comes up first in the recovering
		// state, WAL replay runs in the background, and Activate flips
		// the server live — so orchestrators see the port and probe
		// /healthz from the first moment of a cold start.
		srv = server.NewRecovering(cfg)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "certsqld:", err)
		return 1
	}
	fmt.Printf("certsqld listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	var storePtr atomic.Pointer[persist.Store]
	recoverErr := make(chan error, 1) // receives only failures; success Activates in place
	if *persistDir != "" {
		fmt.Fprintf(os.Stderr, "certsqld: opening durable catalog in %s...\n", *persistDir)
		go func() {
			start := time.Now()
			store, err := persist.Open(*persistDir, func() (*table.Database, error) {
				return seedCatalog(*dataDir, *empty, *sf, *nullRate, *seed)
			}, persist.Options{
				CheckpointEvery: *ckptEvery,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "certsqld: "+format+"\n", args...)
				},
			})
			if err != nil {
				recoverErr <- err
				return
			}
			storePtr.Store(store)
			// Named sessions start from the recovered catalog; the
			// default session serves straight from the durable store.
			srv.Activate(store.Snapshot().DB, store)
			fmt.Fprintf(os.Stderr, "certsqld: catalog live at v%d after %s\n",
				store.Version(), time.Since(start).Round(time.Millisecond))
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "certsqld:", err)
		return 1
	case err := <-recoverErr:
		fmt.Fprintln(os.Stderr, "certsqld: recovery failed:", err)
		fmt.Fprintln(os.Stderr, "certsqld: inspect the directory with `certsql fsck` before restarting")
		return 1
	case <-ctx.Done():
	}

	// Graceful shutdown: fail health checks immediately so balancers
	// stop routing, then let in-flight queries finish under the drain
	// deadline. Queries past the deadline are cut off by their own
	// evaluation contexts when the server process exits.
	fmt.Fprintln(os.Stderr, "certsqld: draining...")
	srv.Drain()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "certsqld: drain incomplete:", err)
		return 1
	}
	// Close the durable store only after the drain: every acknowledged
	// load is already on disk (WAL-ahead publish), so this just releases
	// the file handles cleanly. A store still mid-recovery is simply
	// abandoned — recovery never writes anything unsynced worth keeping.
	if store := storePtr.Load(); store != nil {
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "certsqld: store close:", err)
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "certsqld: drained, bye")
	return 0
}

// seedCatalog builds the initial database every session starts from.
func seedCatalog(dataDir string, empty bool, sf, nullRate float64, seed int64) (*table.Database, error) {
	switch {
	case dataDir != "":
		db, err := certsql.OpenTPCHDir(dataDir)
		if err != nil {
			return nil, err
		}
		return db.Internal(), nil
	case empty:
		return table.NewDatabase(tpch.Schema()), nil
	default:
		if sf < 0 || nullRate < 0 || nullRate > 1 {
			return nil, errors.New("bad -sf/-nullrate")
		}
		return tpch.Generate(tpch.Config{ScaleFactor: sf, Seed: seed, NullRate: nullRate}), nil
	}
}
