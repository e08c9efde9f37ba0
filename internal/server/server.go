// Package server is the HTTP serving layer of the certain-answer
// engine: a long-running certsqld process exposes the library's
// Q ↦ (Q⁺, Q⋆) evaluation over a JSON API with sessions, compiled-plan
// reuse, snapshot-consistent reads, admission control and metrics.
//
// The request path is deliberately thin over the library:
//
//	admission (bounded queue) → session snapshot pin → Prepare/Execute
//	(one plan cache per server, keyed by canonical SQL + schema) → wire
//	encode
//
// Every failure surfaces as a typed guard/certain error, and errmap.go
// translates that taxonomy onto HTTP statuses — the server never maps
// a governed stop to 500. See DESIGN.md §11 for the architecture.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"certsql"
	"certsql/internal/guard"
	"certsql/internal/plancache"
	"certsql/internal/server/api"
	"certsql/internal/table"
)

// Config sizes one server.
type Config struct {
	// Seed is the initial catalog every session starts from. Required
	// by New (NewRecovering defers it to Activate); the server takes
	// ownership (the seed must not be mutated after).
	Seed *table.Database

	// Durable, when non-nil, backs the default session with a durable
	// catalog (normally a persist.Store) instead of an in-memory store,
	// so loads against it survive restarts. Named sessions remain
	// in-memory scratch catalogs seeded from Seed.
	Durable Catalog

	// MaxConcurrent bounds queries evaluating at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a slot; arrivals beyond it
	// are rejected with 429 (default 2×MaxConcurrent).
	MaxQueue int

	// DefaultLimits are the per-query budgets applied when a request
	// carries no override; MaxLimits are the ceilings requests cannot
	// exceed (zero fields of MaxLimits mean "no ceiling beyond the
	// guard defaults").
	DefaultLimits guard.Limits
	MaxLimits     guard.Limits

	// DefaultTimeout bounds each query's evaluation wall time when the
	// request does not set one (0 = none); MaxTimeout caps request
	// overrides (0 = uncapped).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Parallelism is the executor worker count per query (0 =
	// GOMAXPROCS). Concurrency across queries comes from MaxConcurrent,
	// so serving deployments usually set this low.
	Parallelism int
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent <= 0 {
		return 4
	}
	return c.MaxConcurrent
}

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 2 * c.maxConcurrent()
	}
	return c.MaxQueue
}

// Server is the HTTP serving layer. Create with New, expose with
// Handler, and flip Drain before http.Server.Shutdown so health checks
// fail fast while in-flight queries finish.
//
// A server can also start before its catalog is ready: NewRecovering
// returns a listener-ready server in the recovering state, where data
// endpoints answer 503 {"code":"recovering"} and /healthz reports
// "recovering", and Activate flips it live once the durable store has
// replayed its log. That keeps cold-start observable — the process
// accepts probes immediately while WAL replay runs in the background.
type Server struct {
	cfg        Config
	sess       atomic.Pointer[sessions] // nil while recovering
	plans      *plancache.Cache
	adm        *admission
	metrics    *metrics
	mux        *http.ServeMux
	draining   atomic.Bool
	recovering atomic.Bool
}

// New builds a server over cfg.Seed, live immediately.
func New(cfg Config) *Server {
	if cfg.Seed == nil {
		panic("server: Config.Seed is required")
	}
	s := newServer(cfg)
	s.sess.Store(newSessions(cfg.Seed, cfg.Durable))
	return s
}

// NewRecovering builds a server with no catalog yet: it serves
// /healthz (503 "recovering") and /metrics immediately, answers every
// data endpoint with 503 {"code":"recovering"}, and becomes live when
// Activate is called. cfg.Seed and cfg.Durable are ignored here — they
// arrive with Activate, after recovery decides what the catalog is.
func NewRecovering(cfg Config) *Server {
	s := newServer(cfg)
	s.recovering.Store(true)
	return s
}

// Activate installs the recovered catalog and flips the server live.
// seed is the catalog named sessions start from; durable, when
// non-nil, backs the default session. Calling Activate on an already
// live server panics — sessions must not be silently discarded.
func (s *Server) Activate(seed *table.Database, durable Catalog) {
	if seed == nil {
		panic("server: Activate requires a seed catalog")
	}
	if !s.sess.CompareAndSwap(nil, newSessions(seed, durable)) {
		panic("server: Activate on a live server")
	}
	s.recovering.Store(false)
}

// Recovering reports whether the server is still waiting for Activate.
func (s *Server) Recovering() bool { return s.recovering.Load() }

// sessions returns the live registry, or nil while recovering.
func (s *Server) sessions() *sessions { return s.sess.Load() }

// ready gates a data handler: while recovering it answers 503 with a
// Retry-After hint (the same shape admission rejections use, so the
// client's retry loop applies unchanged) and reports false.
func (s *Server) ready(w http.ResponseWriter) bool {
	if s.sessions() != nil {
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, &api.Error{
		Status:  http.StatusServiceUnavailable,
		Code:    "recovering",
		Message: "server: catalog is recovering; retry shortly",
	})
	return false
}

func newServer(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.maxConcurrent(), cfg.maxQueue()),
		metrics: newMetrics(),
		plans:   plancache.New(0),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.instrument("/v1/query", s.handleQuery))
	mux.HandleFunc("/v1/prepare", s.instrument("/v1/prepare", s.handlePrepare))
	mux.HandleFunc("/v1/execute", s.instrument("/v1/execute", s.handleExecute))
	mux.HandleFunc("/v1/load", s.instrument("/v1/load", s.handleLoad))
	mux.HandleFunc("/v1/catalog", s.instrument("/v1/catalog", s.handleCatalog))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain marks the server as shutting down: /healthz starts failing so
// load balancers stop routing, while the HTTP server's own Shutdown
// keeps serving in-flight requests to completion.
func (s *Server) Drain() { s.draining.Store(true) }

// instrument wraps a handler with latency/status accounting.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.observe(endpoint, sw.status, time.Since(start))
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// --- request plumbing ---------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeErr renders err through the status mapping.
func writeErr(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	writeJSON(w, status, &api.Error{Status: status, Code: code, Message: err.Error()})
}

// decodeBody parses a JSON request body with UseNumber (so int64
// values survive exactly) into dst.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.UseNumber()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &api.Error{
			Status: http.StatusMethodNotAllowed, Code: "method", Message: "use POST"})
		return false
	}
	return true
}

// options derives the evaluation options and context for one request:
// server defaults overlaid with the request's overrides, each clamped
// to the server's ceiling — a request can tighten the budgets but
// never loosen them past MaxLimits.
func (s *Server) options(ctx context.Context, o api.QueryOptions) (context.Context, context.CancelFunc, certsql.Options, error) {
	if o.MaxRows < 0 || o.MaxCostUnits < 0 || o.MaxMemBytes < 0 || o.TimeoutMillis < 0 {
		return nil, nil, certsql.Options{}, errors.New("server: negative limits are not allowed; budgets are mandatory in serving mode")
	}
	lim := s.cfg.DefaultLimits
	if o.MaxRows > 0 {
		lim.MaxRows = o.MaxRows
	}
	if o.MaxCostUnits > 0 {
		lim.MaxCostUnits = o.MaxCostUnits
	}
	if o.MaxMemBytes > 0 {
		lim.MaxMemBytes = o.MaxMemBytes
	}
	lim = clampLimits(lim, s.cfg.MaxLimits)

	timeout := s.cfg.DefaultTimeout
	if o.TimeoutMillis > 0 {
		timeout = time.Duration(o.TimeoutMillis) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	opts := certsql.Options{
		MaxRows:      lim.MaxRows,
		MaxCostUnits: lim.MaxCostUnits,
		MaxMemBytes:  lim.MaxMemBytes,
		Degrade:      o.Degrade,
		Parallelism:  s.cfg.Parallelism,
	}
	return ctx, cancel, opts, nil
}

// clampLimits caps each budget at the configured ceiling. A zero
// ceiling field leaves that budget unclamped.
func clampLimits(lim, max guard.Limits) guard.Limits {
	if max.MaxRows > 0 && (lim.MaxRows <= 0 || lim.MaxRows > max.MaxRows) {
		lim.MaxRows = max.MaxRows
	}
	if max.MaxCostUnits > 0 && (lim.MaxCostUnits <= 0 || lim.MaxCostUnits > max.MaxCostUnits) {
		lim.MaxCostUnits = max.MaxCostUnits
	}
	if max.MaxMemBytes > 0 && (lim.MaxMemBytes <= 0 || lim.MaxMemBytes > max.MaxMemBytes) {
		lim.MaxMemBytes = max.MaxMemBytes
	}
	return lim
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.ready(w) {
		return
	}
	var req api.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	text := req.SQL
	if req.Mode != "" {
		var err error
		text, err = certsql.WithMode(text, req.Mode)
		if err != nil {
			writeErr(w, err)
			return
		}
	}
	sess := s.sessions().get(req.Session)
	// Ad-hoc queries run through the prepared path too: Prepare is one
	// parse + canonical render, and everything after it — compile,
	// analysis, translation — is served from the server's plan cache
	// on repeat, which is where a serving workload spends its life.
	view := sess.view(s.plans)
	stmt, err := view.Prepare(text)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.execute(w, r, req.Params, req.Options, stmt, view.CatalogVersion())
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.ready(w) {
		return
	}
	var req api.PrepareRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	text := req.SQL
	if req.Mode != "" {
		var err error
		text, err = certsql.WithMode(text, req.Mode)
		if err != nil {
			writeErr(w, err)
			return
		}
	}
	sess := s.sessions().get(req.Session)
	stmt, err := sess.view(s.plans).Prepare(text)
	if err != nil {
		writeErr(w, err)
		return
	}
	id := sess.register(stmt)
	resp := &api.PrepareResponse{ID: id, SQL: stmt.Text(), Mode: stmt.Mode().String()}
	// Best-effort EXPLAIN: parameterized statements cannot be planned
	// until a binding arrives, so a failure just leaves the field empty.
	if ex, err := stmt.ExplainContext(r.Context(), nil, certsql.Options{}); err == nil {
		resp.Explain = ex
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.ready(w) {
		return
	}
	var req api.ExecuteRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	sess := s.sessions().get(req.Session)
	stmt, ok := sess.statement(req.ID)
	if !ok {
		writeErr(w, fmt.Errorf("server: unknown statement %q", req.ID))
		return
	}
	// Rebind to the freshest snapshot: the statement text is immutable,
	// but each execution pins the catalog current at arrival; its plan,
	// keyed on the schema, serves every snapshot.
	view := sess.view(s.plans)
	s.execute(w, r, req.Params, req.Options, stmt.Rebind(view), view.CatalogVersion())
}

// execute is the shared tail of /v1/query and /v1/execute: admission,
// governance, evaluation, wire encoding.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, rawParams map[string]any, ropts api.QueryOptions, stmt *certsql.Prepared, version uint64) {
	params, err := api.DecodeParams(rawParams)
	if err != nil {
		writeErr(w, err)
		return
	}
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	ctx, cancel, opts, err := s.options(r.Context(), ropts)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer cancel()
	res, err := stmt.ExecuteWithOptionsContext(ctx, params, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.metrics.observeQuery(res.Stats.PlanCacheHits, res.Stats.PlanCacheMisses, res.Degraded, res.Stats.MemHighWaterBytes)
	resp := &api.QueryResponse{
		Columns:  res.Columns,
		Rows:     api.EncodeRows(res.Rows()),
		Certain:  res.Certain,
		Possible: res.Possible,
		Degraded: res.Degraded,
		Version:  version,
		Stats: api.Stats{
			CostUnits:         res.Stats.CostUnits,
			NestedLoopJoins:   res.Stats.NestedLoopJoins,
			HashJoins:         res.Stats.HashJoins,
			UnifyJoins:        res.Stats.UnifyJoins,
			ShortCircuits:     res.Stats.ShortCircuits,
			CacheHits:         res.Stats.CacheHits,
			PlanCacheHits:     res.Stats.PlanCacheHits,
			PlanCacheMisses:   res.Stats.PlanCacheMisses,
			MemHighWaterBytes: res.Stats.MemHighWaterBytes,
		},
	}
	if resp.Rows == nil {
		resp.Rows = [][]any{}
	}
	for _, warn := range res.Warnings {
		resp.Warnings = append(resp.Warnings, api.Warning{Code: warn.Code, Message: warn.Message})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.ready(w) {
		return
	}
	var req api.LoadRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	rows := make([]table.Row, len(req.Rows))
	for i, raw := range req.Rows {
		row, err := api.DecodeRow(raw)
		if err != nil {
			writeErr(w, fmt.Errorf("server: row %d: %w", i, err))
			return
		}
		rows[i] = row
	}
	sess := s.sessions().get(req.Session)
	version, err := sess.store.Update(func(db *table.Database) error {
		for _, row := range rows {
			if err := db.Insert(req.Table, row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &api.LoadResponse{Version: version, Rows: len(rows)})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if !s.ready(w) {
		return
	}
	sess := s.sessions().get(r.URL.Query().Get("session"))
	snap := sess.store.Snapshot()
	resp := &api.CatalogResponse{Version: snap.Version}
	for _, name := range snap.DB.Schema.Names() {
		rel, _ := snap.DB.Schema.Relation(name)
		t := snap.DB.MustTable(name)
		info := api.TableInfo{Name: name, Rows: t.Len()}
		for i, a := range rel.Attrs {
			ci := api.ColumnInfo{Name: a.Name, Type: a.Type.String(), Nullable: a.Nullable}
			// The null lists are built once per table generation and
			// shared with the executor; a NOT NULL column holds none.
			if a.Nullable && t.Len() > 0 {
				rows, _ := t.NullRows(i)
				ci.NullRate = float64(len(rows)) / float64(t.Len())
			}
			info.Columns = append(info.Columns, ci)
		}
		resp.Tables = append(resp.Tables, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.sessions() == nil {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := gauges{
		queueDepth:   s.adm.queueDepth(),
		inFlight:     s.adm.inFlight(),
		planEntries:  s.plans.Len(),
		shuttingDown: s.draining.Load(),
	}
	if ss := s.sessions(); ss != nil {
		g.sessions = ss.count()
		g.catalogVers = ss.snapshotVersions()
		g.tableStats = ss.statsGauges()
	} else {
		g.recovering = true
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.metrics.render(g))
}
