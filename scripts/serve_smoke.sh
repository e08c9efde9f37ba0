#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the certsqld serving layer.
#
# Builds certsqld and the certsql shell, starts the server on a
# kernel-assigned port over a generated TPC-H instance, runs the
# paper's Q1–Q4 twice each through the remote client (the repetition is
# what exercises the plan cache), then asserts from /metrics that:
#
#   - at least one query was served from the plan cache,
#   - after a one-row /v1/load, a third run of Q1–Q4 compiles nothing
#     (plans key on the schema, which a load does not change) and the
#     default session reads catalog version 2,
#   - no request ended in a 5xx (every failure must map to a typed
#     4xx/507 status — a 500 means an unmapped error escaped),
#   - the admission gauges are exposed,
#
# and finally that SIGTERM drains the server to a clean exit 0.
#
# Run via `make serve-smoke`; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve-smoke: building..."
$GO build -o "$workdir/certsqld" ./cmd/certsqld
$GO build -o "$workdir/certsql" ./cmd/certsql

"$workdir/certsqld" -addr 127.0.0.1:0 -sf 0.001 -nullrate 0.03 -seed 1 \
    >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
pid=$!

# The server prints one "certsqld listening on http://host:port" line
# once the listener is up; with -addr :0 this is how the port is found.
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^certsqld listening on //p' "$workdir/stdout.log" | head -n 1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "serve-smoke: FAIL — server never announced its address" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi
echo "serve-smoke: server at $url"

curl -fsS "$url/healthz" >/dev/null

# Q1–Q4, twice each: the second run of every query must hit the plan
# cache (same SQL, same seeded parameters, same catalog version).
for q in 1 2 3 4; do
    for rep in 1 2; do
        if ! "$workdir/certsql" -remote "$url" -tpchq "$q" -mode certain -maxrows 3 \
            >>"$workdir/queries.log" 2>&1; then
            echo "serve-smoke: FAIL — Q$q (run $rep) failed:" >&2
            tail -n 20 "$workdir/queries.log" >&2
            exit 1
        fi
    done
done
echo "serve-smoke: Q1-Q4 ran twice each"

curl -fsS "$url/metrics" >"$workdir/metrics.txt"

hits=$(awk '$1 == "certsqld_plan_cache_hits_total" {print $2}' "$workdir/metrics.txt")
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "serve-smoke: FAIL — expected plan-cache hits, got '${hits:-none}'" >&2
    cat "$workdir/metrics.txt" >&2
    exit 1
fi
echo "serve-smoke: plan cache hits: $hits"

# A load publishes version 2 of the default session's catalog. Plans
# are keyed on the schema, not the version, so Q1–Q4 run once more must
# all hit: the miss counter may not move.
misses=$(awk '$1 == "certsqld_plan_cache_misses_total" {print $2}' "$workdir/metrics.txt")
curl -fsS "$url/v1/load" -d '{"table":"nation","rows":[[99,"ATLANTIS",1,"sunk"]]}' >/dev/null
for q in 1 2 3 4; do
    if ! "$workdir/certsql" -remote "$url" -tpchq "$q" -mode certain -maxrows 3 \
        >>"$workdir/queries.log" 2>&1; then
        echo "serve-smoke: FAIL — Q$q after the load failed:" >&2
        tail -n 20 "$workdir/queries.log" >&2
        exit 1
    fi
done
curl -fsS "$url/metrics" >"$workdir/metrics.txt"
after=$(awk '$1 == "certsqld_plan_cache_misses_total" {print $2}' "$workdir/metrics.txt")
if [ -z "$misses" ] || [ "$after" != "$misses" ]; then
    echo "serve-smoke: FAIL — plan-cache misses went from '${misses:-none}' to '${after:-none}' across a load" >&2
    cat "$workdir/metrics.txt" >&2
    exit 1
fi
version=$(awk '$1 == "certsqld_catalog_version{session=\"default\"}" {print $2}' "$workdir/metrics.txt")
if [ "$version" != "2" ]; then
    echo "serve-smoke: FAIL — default session at catalog version '${version:-none}' after one load, want 2" >&2
    cat "$workdir/metrics.txt" >&2
    exit 1
fi
echo "serve-smoke: a load (catalog version 2) recompiled nothing: $after misses"

if grep -E 'certsqld_requests_total\{[^}]*status="5[0-9]{2}"' "$workdir/metrics.txt"; then
    echo "serve-smoke: FAIL — 5xx responses recorded (unmapped error escaped)" >&2
    exit 1
fi

for gauge in certsqld_queue_depth certsqld_in_flight certsqld_sessions; do
    grep -q "^$gauge " "$workdir/metrics.txt" || {
        echo "serve-smoke: FAIL — metrics missing $gauge" >&2
        exit 1
    }
done

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "serve-smoke: FAIL — server exited $status on SIGTERM" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi
grep -q "drained" "$workdir/stderr.log" || {
    echo "serve-smoke: FAIL — no drain confirmation in server log" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
}

echo "serve-smoke: PASS"
