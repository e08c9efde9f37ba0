package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"certsql/internal/server/api"
)

// shardStatements put the routed keep loops on the wire: a correlated
// NOT EXISTS probes lineitem per orders batch, under both translations,
// beside a plain selection that routes nothing.
var shardStatements = []string{
	`SELECT CERTAIN o_orderkey FROM orders WHERE NOT EXISTS (
	   SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey <> 3)`,
	`SELECT POSSIBLE o_orderkey FROM orders WHERE NOT EXISTS (
	   SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_suppkey <> 3)`,
	`SELECT CERTAIN n_name FROM nation WHERE n_regionkey = 1`,
}

// queryBody posts one ad-hoc statement and returns the raw response
// body, failing the test on anything but 200.
func queryBody(t *testing.T, ts *httptest.Server, sql string) string {
	t.Helper()
	req, err := json.Marshal(api.QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", sql, res.StatusCode, body)
	}
	return string(body)
}

// TestShardsConfigIsInvisibleInResponses: a Shards: 3 server and an
// unsharded one answer the same CERTAIN and POSSIBLE statements with
// byte-identical bodies — rows, order, stats and all — and the sharded
// one says what it is on /metrics: the configured count, and partition
// gauges that account for every row of every table.
func TestShardsConfigIsInvisibleInResponses(t *testing.T) {
	sharded, c := newTestServer(t, Config{Shards: 3})
	plain, _ := newTestServer(t, Config{Shards: 0})
	for _, sql := range shardStatements {
		want, got := queryBody(t, plain, sql), queryBody(t, sharded, sql)
		if got != want {
			t.Errorf("%s:\nShards 0: %s\nShards 3: %s", sql, want, got)
		}
		var resp api.QueryResponse
		if err := json.Unmarshal([]byte(got), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) == 0 {
			t.Errorf("%s: empty answer proves nothing", sql)
		}
	}

	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, "certsqld_shards 3\n") {
		t.Errorf("metrics missing certsqld_shards 3")
	}
	gauge := regexp.MustCompile(`(?m)^certsqld_shard_partition_rows\{session="default",table="([a-z]+)",shard="[0-2]"\} (\d+)$`)
	perTable := map[string]int{}
	for _, g := range gauge.FindAllStringSubmatch(m, -1) {
		n, err := strconv.Atoi(g[2])
		if err != nil {
			t.Fatal(err)
		}
		perTable[g[1]] += n
	}
	for _, name := range testSeed.Schema.Names() {
		if got, want := perTable[name], testSeed.MustTable(name).Len(); got != want {
			t.Errorf("partition gauges of %s sum to %d rows, table has %d", name, got, want)
		}
	}
}

// TestShardCountIgnoresAdmissionLoad: the executor's worker count is
// Parallelism at any Shards, so a saturated admission gate is no reason
// to run a query unsharded — the options handed to the engine carry the
// configured count whether or not every execution slot is held.
func TestShardCountIgnoresAdmissionLoad(t *testing.T) {
	srv := New(Config{Seed: testSeed, Shards: 3, MaxConcurrent: 1})
	shardsNow := func() int {
		t.Helper()
		_, cancel, opts, err := srv.options(context.Background(), api.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		return opts.Shards
	}
	if got := shardsNow(); got != 3 {
		t.Fatalf("idle server runs queries at Shards %d, want 3", got)
	}
	release, err := srv.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if srv.adm.inFlight() != 1 {
		t.Fatal("the only execution slot should be held")
	}
	if got := shardsNow(); got != 3 {
		t.Fatalf("saturated server runs queries at Shards %d, want 3", got)
	}
}
