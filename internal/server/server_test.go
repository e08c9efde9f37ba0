package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"certsql/internal/certain"
	"certsql/internal/guard"
	"certsql/internal/server/api"
	"certsql/internal/server/client"
	"certsql/internal/table"
	"certsql/internal/tpch"
	"certsql/internal/value"
)

// testSeed is a small generated TPC-H instance shared by the tests
// (each session copy-on-writes, so sharing the seed is safe).
var testSeed = tpch.Generate(tpch.Config{ScaleFactor: 0.001, Seed: 7, NullRate: 0.05})

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Seed == nil {
		cfg.Seed = testSeed
	}
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL, client.WithHTTPClient(ts.Client()))
}

func TestQueryBasic(t *testing.T) {
	_, c := newTestServer(t, Config{})
	res, err := c.Query(context.Background(), `SELECT CERTAIN n_name FROM nation WHERE n_regionkey = $r`,
		map[string]any{"r": 1}, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certain || res.Possible {
		t.Errorf("mode flags: certain=%v possible=%v", res.Certain, res.Possible)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "n_name" {
		t.Errorf("columns: %v", res.Columns)
	}
	if res.Version != 1 {
		t.Errorf("version: %d, want 1 (seed snapshot)", res.Version)
	}
	for _, row := range res.Rows {
		if len(row) != 1 || row[0].Kind() != value.KindString {
			t.Errorf("bad row %v", row)
		}
	}
}

// TestAdHocQueriesShareThePlanCache: /v1/query routes through the
// prepared path, so the second identical ad-hoc request is a cache hit.
func TestAdHocQueriesShareThePlanCache(t *testing.T) {
	_, c := newTestServer(t, Config{})
	const q = `SELECT CERTAIN n_name FROM nation WHERE n_regionkey = 2`
	r1, err := c.Query(context.Background(), q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query(context.Background(), q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PlanCacheMisses != 1 || r1.Stats.PlanCacheHits != 0 {
		t.Errorf("first run: %+v", r1.Stats)
	}
	if r2.Stats.PlanCacheHits != 1 || r2.Stats.PlanCacheMisses != 0 {
		t.Errorf("second run: %+v", r2.Stats)
	}
}

func TestPrepareExecuteFlow(t *testing.T) {
	_, c := newTestServer(t, Config{})
	stmt, err := c.Prepare(context.Background(), `SELECT n_name FROM nation WHERE n_nationkey = $k`, "certain")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Mode != "certain" {
		t.Errorf("mode: %q", stmt.Mode)
	}
	// A statement referencing $k cannot be planned without a binding,
	// so its prepare-time EXPLAIN is empty.
	if stmt.Explain != "" {
		t.Errorf("parameterized statement should have no prepare-time EXPLAIN:\n%s", stmt.Explain)
	}
	free, err := c.Prepare(context.Background(), `SELECT n_name FROM nation WHERE n_regionkey = 1`, "certain")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(free.Explain, "plan (") {
		t.Errorf("parameterless statement should carry a prepare-time EXPLAIN, got %q", free.Explain)
	}
	r1, err := stmt.Execute(context.Background(), map[string]any{"k": 3}, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := stmt.Execute(context.Background(), map[string]any{"k": 3}, client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PlanCacheMisses != 1 {
		t.Errorf("first execute should compile: %+v", r1.Stats)
	}
	if r2.Stats.PlanCacheHits != 1 || r2.Stats.PlanCacheMisses != 0 {
		t.Errorf("second execute should hit the plan cache: %+v", r2.Stats)
	}
	if strings.Join(r1.SortedStrings(), "|") != strings.Join(r2.SortedStrings(), "|") {
		t.Errorf("cached plan changed the answer:\n%v\n%v", r1.SortedStrings(), r2.SortedStrings())
	}
}

// TestLoadPublishesVersionAndKeepsPlans: a load bumps the snapshot
// version and queries observe the new rows, from the plan cached before
// the load: a plan is keyed on the schema, which a load does not change.
func TestLoadPublishesVersionAndKeepsPlans(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	const q = `SELECT CERTAIN n_name FROM nation WHERE n_nationkey = 99`

	r1, err := c.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 0 || r1.Version != 1 {
		t.Fatalf("fresh catalog: %d rows at v%d", len(r1.Rows), r1.Version)
	}

	version, err := c.Load(ctx, "nation", [][]value.Value{
		{value.Int(99), value.Str("ATLANTIS"), value.Int(1), value.Str("sunk")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Errorf("load version: %d, want 2", version)
	}

	r2, err := c.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Version != 2 {
		t.Errorf("post-load version: %d", r2.Version)
	}
	if len(r2.Rows) != 1 || r2.Rows[0][0].AsString() != "ATLANTIS" {
		t.Errorf("post-load rows: %v", r2.SortedStrings())
	}
	// The plan compiled at version 1 serves version 2 and reads its rows.
	if r2.Stats.PlanCacheHits != 1 || r2.Stats.PlanCacheMisses != 0 {
		t.Errorf("post-load stats: %+v, want the pre-load plan reused", r2.Stats)
	}

	// Loading a row that violates the schema is a client error.
	if _, err := c.Load(ctx, "nation", [][]value.Value{{value.Int(1)}}); err == nil {
		t.Errorf("short row: want error")
	}
}

// TestSessionsShareThePlanCache: the server keeps one plan cache, keyed
// on the schema, so a statement compiled in one session hits in a
// second session started from the same seed, and reads that session's
// own data.
func TestSessionsShareThePlanCache(t *testing.T) {
	ts, a := newTestServer(t, Config{})
	b := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithSession("second"))
	ctx := context.Background()
	const q = `SELECT CERTAIN n_name FROM nation WHERE n_nationkey = 99`
	if _, err := b.Load(ctx, "nation", [][]value.Value{
		{value.Int(99), value.Str("ATLANTIS"), value.Int(1), value.Str("sunk")},
	}); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.PlanCacheMisses != 1 || len(ra.Rows) != 0 {
		t.Fatalf("default session: stats %+v, rows %v; want a compile and no rows", ra.Stats, ra.SortedStrings())
	}
	rb, err := b.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Stats.PlanCacheHits != 1 || rb.Stats.PlanCacheMisses != 0 {
		t.Errorf("second session: stats %+v, want the default session's plan", rb.Stats)
	}
	if len(rb.Rows) != 1 || rb.Rows[0][0].AsString() != "ATLANTIS" {
		t.Errorf("second session rows: %v, want its own load", rb.SortedStrings())
	}
}

// TestLoadRejectsNullInNotNullColumn: a /v1/load whose rows put a null
// in a NOT NULL column is refused as a whole with 422 not-null; the
// catalog version and the table are left as they were.
func TestLoadRejectsNullInNotNullColumn(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	before, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	nationRows := func(cat *api.CatalogResponse) int {
		for _, ti := range cat.Tables {
			if ti.Name == "nation" {
				return ti.Rows
			}
		}
		t.Fatal("catalog has no nation table")
		return 0
	}
	_, err = c.Load(ctx, "nation", [][]value.Value{
		{value.Int(98), value.Str("LEMURIA"), value.Int(1), value.Str("sunk")},
		{value.Null(9), value.Str("MU"), value.Int(1), value.Str("sunk")}, // n_nationkey is NOT NULL
	})
	if s, code := apiStatus(t, err); s != http.StatusUnprocessableEntity || code != "not-null" {
		t.Fatalf("got %d/%s, want 422/not-null", s, code)
	}
	after, err := c.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Errorf("version %d after a refused load, want %d", after.Version, before.Version)
	}
	if got, want := nationRows(after), nationRows(before); got != want {
		t.Errorf("nation has %d rows after a refused load, want %d", got, want)
	}
}

// TestSessionsAreIsolated: a load in one session is invisible to
// another; each keeps its own version counter.
func TestSessionsAreIsolated(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	a := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithSession("alice"))
	b := client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithSession("bob"))
	ctx := context.Background()

	if _, err := a.Load(ctx, "region", [][]value.Value{
		{value.Int(77), value.Str("MU"), value.Str("lost")},
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT CERTAIN r_name FROM region WHERE r_regionkey = 77`
	ra, err := a.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query(ctx, q, nil, "", client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rows) != 1 || len(rb.Rows) != 0 {
		t.Errorf("isolation: alice sees %d rows, bob sees %d", len(ra.Rows), len(rb.Rows))
	}
	if ra.Version != 2 || rb.Version != 1 {
		t.Errorf("versions: alice v%d, bob v%d", ra.Version, rb.Version)
	}
}

// --- error mapping -------------------------------------------------------

// apiStatus extracts the mapped HTTP status from a client error.
func apiStatus(t *testing.T, err error) (int, string) {
	t.Helper()
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *api.Error, got %T: %v", err, err)
	}
	return apiErr.Status, apiErr.Code
}

func TestStatusMappingOverHTTP(t *testing.T) {
	_, c := newTestServer(t, Config{
		// Unlimited defaults so only the per-request overrides trip.
		DefaultLimits: guard.Limits{MaxRows: -1, MaxCostUnits: -1, MaxMemBytes: -1},
	})
	ctx := context.Background()

	t.Run("bad SQL is 400", func(t *testing.T) {
		_, err := c.Query(ctx, `SELEKT banana`, nil, "", client.QueryOptions{})
		if s, code := apiStatus(t, err); s != http.StatusBadRequest || code != "bad-request" {
			t.Errorf("got %d/%s", s, code)
		}
	})

	t.Run("untranslatable is 422", func(t *testing.T) {
		_, err := c.Query(ctx, `SELECT CERTAIN n_regionkey FROM nation ORDER BY n_regionkey`,
			nil, "", client.QueryOptions{})
		if s, code := apiStatus(t, err); s != http.StatusUnprocessableEntity || code != "untranslatable" {
			t.Errorf("got %d/%s", s, code)
		}
	})

	t.Run("row budget is 507", func(t *testing.T) {
		_, err := c.Query(ctx, `SELECT s_suppkey, o_orderkey FROM supplier, orders`,
			nil, "", client.QueryOptions{MaxRows: 2})
		if s, code := apiStatus(t, err); s != http.StatusInsufficientStorage || code != "row-budget" {
			t.Errorf("got %d/%s", s, code)
		}
	})

	t.Run("deadline is 408", func(t *testing.T) {
		_, err := c.Query(ctx, `SELECT l1.l_orderkey FROM lineitem l1, lineitem l2, lineitem l3, orders`,
			nil, "", client.QueryOptions{TimeoutMillis: 1})
		if s, code := apiStatus(t, err); s != http.StatusRequestTimeout || code != "deadline" {
			t.Errorf("got %d/%s", s, code)
		}
	})

	t.Run("negative limits are 400", func(t *testing.T) {
		_, err := c.Query(ctx, `SELECT n_name FROM nation`, nil, "", client.QueryOptions{MaxRows: -1})
		if s, _ := apiStatus(t, err); s != http.StatusBadRequest {
			t.Errorf("got %d", s)
		}
	})

	t.Run("unknown statement is 400", func(t *testing.T) {
		stmt, err := c.Prepare(ctx, `SELECT n_name FROM nation`, "")
		if err != nil {
			t.Fatal(err)
		}
		stmt.ID = "s999999"
		_, err = stmt.Execute(ctx, nil, client.QueryOptions{})
		if s, _ := apiStatus(t, err); s != http.StatusBadRequest {
			t.Errorf("got %d", s)
		}
	})

	t.Run("GET on a POST endpoint is 405", func(t *testing.T) {
		ts, _ := newTestServer(t, Config{})
		res, err := ts.Client().Get(ts.URL + "/v1/query")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("got %d", res.StatusCode)
		}
	})
}

// TestStatusForTaxonomy pins the full sentinel → status mapping,
// including the branches that are awkward to provoke over HTTP
// (cancellation, internal errors, queue overflow).
func TestStatusForTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   string
	}{
		{ErrQueueFull, http.StatusTooManyRequests, "queue-full"},
		{guard.ErrDeadline, http.StatusRequestTimeout, "deadline"},
		{context.DeadlineExceeded, http.StatusRequestTimeout, "deadline"},
		{guard.ErrCanceled, statusClientClosedRequest, "canceled"},
		{context.Canceled, statusClientClosedRequest, "canceled"},
		{certain.ErrUntranslatable, http.StatusUnprocessableEntity, "untranslatable"},
		{&table.NotNullViolation{}, http.StatusUnprocessableEntity, "not-null"},
		{guard.ErrRowBudget, http.StatusInsufficientStorage, "row-budget"},
		{guard.ErrCostBudget, http.StatusInsufficientStorage, "cost-budget"},
		{guard.ErrMemBudget, http.StatusInsufficientStorage, "mem-budget"},
		{guard.ErrBudget, http.StatusInsufficientStorage, "budget"},
		{&guard.InternalError{}, http.StatusInternalServerError, "internal"},
		{errors.New("anything else"), http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		status, code := statusFor(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("statusFor(%v) = %d/%s, want %d/%s", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// --- admission -----------------------------------------------------------

func TestAdmissionQueueBounds(t *testing.T) {
	adm := newAdmission(1, 1)

	rel1, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := adm.inFlight(); got != 1 {
		t.Errorf("inFlight: %d", got)
	}

	// Second arrival queues; third must bounce with ErrQueueFull.
	type res struct {
		rel func()
		err error
	}
	queued := make(chan res, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		r, err := adm.acquire(context.Background())
		queued <- res{r, err}
	}()
	<-entered
	// Wait until the queued goroutine is counted as waiting.
	for i := 0; adm.queueDepth() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if adm.queueDepth() != 1 {
		t.Fatalf("queueDepth: %d", adm.queueDepth())
	}
	if _, err := adm.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third arrival: %v, want ErrQueueFull", err)
	}

	// Releasing the slot admits the queued waiter.
	rel1()
	got := <-queued
	if got.err != nil {
		t.Fatalf("queued waiter: %v", got.err)
	}
	got.rel()
	got.rel() // release is idempotent
	if adm.inFlight() != 0 || adm.queueDepth() != 0 {
		t.Errorf("after drain: inFlight=%d queueDepth=%d", adm.inFlight(), adm.queueDepth())
	}

	// A queued waiter whose context dies leaves cleanly.
	rel2, err := adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := adm.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter: %v", err)
	}
	rel2()
}

// --- lifecycle -----------------------------------------------------------

func TestDrainFailsHealthz(t *testing.T) {
	srv := New(Config{Seed: testSeed})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))

	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("healthy server: %v", err)
	}
	srv.Drain()
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("draining server must fail /healthz")
	}
	// Metrics report the drain.
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "certsqld_shutting_down 1") {
		t.Errorf("metrics missing shutdown gauge:\n%s", m)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	const q = `SELECT CERTAIN n_name FROM nation WHERE n_regionkey = 0`
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, q, nil, "", client.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(ctx, `nonsense`, nil, "", client.QueryOptions{}); err == nil {
		t.Fatal("want parse error")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`certsqld_requests_total{endpoint="/v1/query",status="200"} 3`,
		`certsqld_requests_total{endpoint="/v1/query",status="400"} 1`,
		`certsqld_plan_cache_hits_total 2`,
		`certsqld_plan_cache_misses_total 1`,
		`certsqld_sessions 1`,
		`certsqld_catalog_version{session="default"} 1`,
		// The stats gauges read the session's snapshot tables.
		`certsqld_stats_rows{session="default",table="nation"}`,
		`certsqld_stats_nulls{session="default",table="nation"}`,
		`certsqld_in_flight 0`,
		`certsqld_queue_depth 0`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCatalogEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cat, err := c.Catalog(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cat.Version != 1 || len(cat.Tables) != 8 {
		t.Fatalf("catalog: v%d, %d tables", cat.Version, len(cat.Tables))
	}
	byName := map[string]api.TableInfo{}
	for _, ti := range cat.Tables {
		byName[ti.Name] = ti
	}
	nation, ok := byName["nation"]
	if !ok || len(nation.Columns) != 4 {
		t.Fatalf("nation: %+v", nation)
	}
	if nation.Columns[0].Name != "n_nationkey" || nation.Columns[0].Nullable {
		t.Errorf("nation key column: %+v", nation.Columns[0])
	}
	if !nation.Columns[1].Nullable {
		t.Errorf("n_name should be nullable in the generated schema")
	}
	// Rows and null rates are the snapshot's own counts, column by
	// column (the server runs on the seed, unchanged).
	for _, ti := range cat.Tables {
		tbl := testSeed.MustTable(ti.Name)
		if ti.Rows != tbl.Len() {
			t.Errorf("%s: rows %d, the snapshot holds %d", ti.Name, ti.Rows, tbl.Len())
		}
		for i, col := range ti.Columns {
			nulls := 0
			for _, r := range tbl.Rows() {
				if r[i].IsNull() {
					nulls++
				}
			}
			if want := float64(nulls) / float64(max(tbl.Len(), 1)); col.NullRate != want {
				t.Errorf("%s.%s: null rate %g, the snapshot has %d nulls in %d rows", ti.Name, col.Name, col.NullRate, nulls, tbl.Len())
			}
		}
	}
}

// TestNoGoroutineLeaks: a burst of queries (including failures) leaves
// no goroutines behind once responses are consumed.
func TestNoGoroutineLeaks(t *testing.T) {
	ts, c := newTestServer(t, Config{MaxConcurrent: 2})
	ctx := context.Background()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := c.Query(ctx, `SELECT CERTAIN n_name FROM nation WHERE n_regionkey = 1`, nil, "", client.QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		_, _ = c.Query(ctx, `bogus`, nil, "", client.QueryOptions{})
	}
	ts.CloseClientConnections()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}
