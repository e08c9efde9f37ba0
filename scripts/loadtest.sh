#!/usr/bin/env bash
# loadtest.sh — soak the certsqld serving layer under concurrent load.
#
# Builds certsqld and the loadtest generator, starts the server on a
# kernel-assigned port over a generated TPC-H instance, soaks it with
# concurrent closed-loop workers replaying the paper's Q1–Q4 in certain
# mode (the generator exits non-zero on any 5xx or when every request
# failed), then asserts from /metrics that no request ended in a 5xx
# (the typed-failure taxonomy held under load), and finally that
# SIGTERM drains the server to a clean exit 0.
#
# Run via `make loadtest` (30s soak) or `make loadtest-smoke` (3s, the
# CI setting). DURATION and CONCURRENCY override the defaults.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
DURATION=${DURATION:-30s}
CONCURRENCY=${CONCURRENCY:-8}
workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "loadtest: building..."
$GO build -o "$workdir/certsqld" ./cmd/certsqld
$GO build -o "$workdir/loadtest" ./cmd/loadtest

"$workdir/certsqld" -addr 127.0.0.1:0 -sf 0.001 -nullrate 0.03 -seed 1 \
    >"$workdir/stdout.log" 2>"$workdir/stderr.log" &
pid=$!

url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^certsqld listening on //p' "$workdir/stdout.log" | head -n 1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "loadtest: FAIL — server never announced its address" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi
echo "loadtest: server at $url, soaking for $DURATION..."

"$workdir/loadtest" -url "$url" -duration "$DURATION" -concurrency "$CONCURRENCY"

curl -fsS "$url/metrics" >"$workdir/metrics.txt"

if grep -E 'certsqld_requests_total\{[^}]*status="5[0-9]{2}"' "$workdir/metrics.txt"; then
    echo "loadtest: FAIL — 5xx responses recorded (unmapped error escaped)" >&2
    exit 1
fi

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "loadtest: FAIL — server exited $status on SIGTERM" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi

echo "loadtest: PASS"
