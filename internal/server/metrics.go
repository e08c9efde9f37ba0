package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// metrics aggregates the server's observability counters. The text
// rendering follows the Prometheus exposition conventions (name,
// optional {labels}, value) using only the stdlib — close enough for
// scraping and for the smoke tests to assert on, with no dependency.
type metrics struct {
	mu sync.Mutex
	// requests counts finished requests by endpoint and HTTP status.
	requests map[reqKey]int64
	// latency accumulates per-endpoint wall time of finished requests.
	latency map[string]*latencySum

	planCacheHits   int64
	planCacheMisses int64
	degraded        int64
	admissionDrops  int64
	// memHighWater is the largest per-request peak estimated
	// intermediate memory (bytes) any query has reported.
	memHighWater int64
}

type reqKey struct {
	endpoint string
	status   int
}

type latencySum struct {
	count   int64
	seconds float64
}

func newMetrics() *metrics {
	return &metrics{
		requests: map[reqKey]int64{},
		latency:  map[string]*latencySum{},
	}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, status}]++
	l := m.latency[endpoint]
	if l == nil {
		l = &latencySum{}
		m.latency[endpoint] = l
	}
	l.count++
	l.seconds += d.Seconds()
	if status == 429 {
		m.admissionDrops++
	}
}

// observeQuery folds one successful query result into the aggregate
// engine counters.
func (m *metrics) observeQuery(planHits, planMisses int, degraded bool, memHW int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.planCacheHits += int64(planHits)
	m.planCacheMisses += int64(planMisses)
	if degraded {
		m.degraded++
	}
	if memHW > m.memHighWater {
		m.memHighWater = memHW
	}
}

// gauges are the live values rendered alongside the counters; the
// server supplies them at render time.
type gauges struct {
	queueDepth   int64
	inFlight     int64
	sessions     int
	planEntries  int
	catalogVers  map[string]uint64 // session name -> version
	tableStats   []tableStatsGauge
	shuttingDown bool
	recovering   bool
}

// tableStatsGauge is one relation's row and marked-null counts in the
// owning session's current snapshot.
type tableStatsGauge struct {
	session, table string
	rows, nulls    int64
}

// render writes the exposition text. Lines are sorted so the output is
// deterministic — tests and scripts can grep it.
func (m *metrics) render(g gauges) string {
	m.mu.Lock()
	defer m.mu.Unlock()

	var b strings.Builder
	lines := make([]string, 0, len(m.requests)+len(m.latency)*2)
	for k, n := range m.requests {
		lines = append(lines, fmt.Sprintf("certsqld_requests_total{endpoint=%q,status=\"%d\"} %d", k.endpoint, k.status, n))
	}
	for ep, l := range m.latency {
		lines = append(lines, fmt.Sprintf("certsqld_request_seconds_count{endpoint=%q} %d", ep, l.count))
		lines = append(lines, fmt.Sprintf("certsqld_request_seconds_sum{endpoint=%q} %g", ep, l.seconds))
	}
	for session, v := range g.catalogVers {
		lines = append(lines, fmt.Sprintf("certsqld_catalog_version{session=%q} %d", session, v))
	}
	for _, ts := range g.tableStats {
		lines = append(lines, fmt.Sprintf("certsqld_stats_rows{session=%q,table=%q} %d", ts.session, ts.table, ts.rows))
		lines = append(lines, fmt.Sprintf("certsqld_stats_nulls{session=%q,table=%q} %d", ts.session, ts.table, ts.nulls))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}

	hitRatio := 0.0
	if total := m.planCacheHits + m.planCacheMisses; total > 0 {
		hitRatio = float64(m.planCacheHits) / float64(total)
	}
	fmt.Fprintf(&b, "certsqld_admission_rejected_total %d\n", m.admissionDrops)
	fmt.Fprintf(&b, "certsqld_degraded_total %d\n", m.degraded)
	fmt.Fprintf(&b, "certsqld_in_flight %d\n", g.inFlight)
	fmt.Fprintf(&b, "certsqld_plan_cache_entries %d\n", g.planEntries)
	fmt.Fprintf(&b, "certsqld_plan_cache_hit_ratio %g\n", hitRatio)
	fmt.Fprintf(&b, "certsqld_plan_cache_hits_total %d\n", m.planCacheHits)
	fmt.Fprintf(&b, "certsqld_plan_cache_misses_total %d\n", m.planCacheMisses)
	fmt.Fprintf(&b, "certsqld_query_mem_highwater_bytes %d\n", m.memHighWater)
	fmt.Fprintf(&b, "certsqld_queue_depth %d\n", g.queueDepth)
	recovering := 0
	if g.recovering {
		recovering = 1
	}
	fmt.Fprintf(&b, "certsqld_recovering %d\n", recovering)
	fmt.Fprintf(&b, "certsqld_sessions %d\n", g.sessions)
	shutdown := 0
	if g.shuttingDown {
		shutdown = 1
	}
	fmt.Fprintf(&b, "certsqld_shutting_down %d\n", shutdown)
	return b.String()
}
