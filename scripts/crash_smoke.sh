#!/usr/bin/env bash
# crash_smoke.sh — kill -9 recovery smoke test of certsqld -data-dir.
#
# The in-process chaos suite (make chaos-crash, TestCrashRecovery)
# simulates crashes at every durability seam with fault injection; this
# script is the out-of-process complement: a real certsqld, real SIGKILL
# at arbitrary moments, real WAL replay across process boundaries.
#
# Per round: start certsqld over one persistent data directory, wait
# for recovery to finish (healthz flips 503 "recovering" → 200), push
# acknowledged loads through /v1/load, fire one more load and SIGKILL
# the server while it may still be in flight. After every kill the
# invariants are checked, first by `certsql fsck` and then on restart:
#
#   - fsck exits 0 or reports recoverable damage only (a torn WAL
#     tail): its verdict is what the restart's recovery does,
#   - the server recovers (healthz reaches 200),
#   - the catalog version is monotone: >= the last acknowledged version
#     (WAL-ahead publish: an acked load is a durable load),
#   - every previously acknowledged row is still countable via SQL.
#
# The final round shuts down cleanly (SIGTERM) and runs `certsql fsck`,
# which must report the directory clean (exit 0).
#
# Run via `make chaos-crash`; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
ROUNDS=${ROUNDS:-3}
LOADS=${LOADS:-15}
workdir=$(mktemp -d)
datadir="$workdir/data"
pid=""
cleanup() {
    [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "crash-smoke: building..."
$GO build -o "$workdir/certsqld" ./cmd/certsqld
$GO build -o "$workdir/certsql" ./cmd/certsql

url=""
start_server() {
    : >"$workdir/stdout.log"
    "$workdir/certsqld" -addr 127.0.0.1:0 -sf 0.0005 -nullrate 0.03 -seed 1 \
        -data-dir "$datadir" -checkpoint-every 4 \
        >"$workdir/stdout.log" 2>>"$workdir/stderr.log" &
    pid=$!
    url=""
    for _ in $(seq 1 100); do
        url=$(sed -n 's/^certsqld listening on //p' "$workdir/stdout.log" | head -n 1)
        [ -n "$url" ] && break
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if [ -z "$url" ]; then
        echo "crash-smoke: FAIL — server never announced its address" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    # Recovery runs in the background; wait for the 503 "recovering"
    # phase to end.
    for _ in $(seq 1 200); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    echo "crash-smoke: FAIL — server never became healthy after recovery" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
}

# load_row label → prints the acknowledged version, fails on any error.
seq_no=0
load_row() {
    seq_no=$((seq_no + 1))
    curl -fsS -X POST "$url/v1/load" -H 'Content-Type: application/json' \
        -d "{\"table\":\"nation\",\"rows\":[[$((1000 + seq_no)),\"smoke-$seq_no\",1,\"crash smoke row\"]]}" |
        sed -n 's/.*"version":\([0-9]*\).*/\1/p'
}

count_smoke_rows() {
    "$workdir/certsql" -remote "$url" \
        -query "SELECT n_nationkey FROM nation WHERE n_comment = 'crash smoke row'" \
        -maxrows 100000 2>/dev/null | sed -n 's/^-- \([0-9]*\) rows.*/\1/p'
}

acked_version=0
acked_rows=0
for round in $(seq 1 "$ROUNDS"); do
    start_server
    echo "crash-smoke: round $round at $url"

    got_version=$(curl -fsS "$url/v1/catalog" | sed -n 's/.*"version":\([0-9]*\).*/\1/p')
    if [ -z "$got_version" ] || [ "$got_version" -lt "$acked_version" ]; then
        echo "crash-smoke: FAIL — recovered version '${got_version:-none}' < acked $acked_version" >&2
        exit 1
    fi
    rows=$(count_smoke_rows)
    if [ -z "$rows" ] || [ "$rows" -lt "$acked_rows" ]; then
        echo "crash-smoke: FAIL — recovered $rows smoke rows, acked $acked_rows" >&2
        cat "$workdir/stderr.log" >&2
        exit 1
    fi
    echo "crash-smoke: recovered at v$got_version with $rows/$acked_rows acked rows"

    for _ in $(seq 1 "$LOADS"); do
        v=$(load_row)
        if [ -z "$v" ]; then
            echo "crash-smoke: FAIL — load not acknowledged" >&2
            exit 1
        fi
        acked_version=$v
        acked_rows=$((acked_rows + 1))
    done

    # One more load racing the kill: it may or may not land — either
    # way the next recovery must be consistent (that's the point).
    curl -fsS -X POST "$url/v1/load" -H 'Content-Type: application/json' \
        -d "{\"table\":\"nation\",\"rows\":[[9999,\"racer\",1,\"unacked racer\"]]}" \
        >/dev/null 2>&1 &
    racer=$!
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true
    pid=""
    wait "$racer" 2>/dev/null || true
    echo "crash-smoke: killed -9 after $acked_rows acked loads (v$acked_version)"

    # fsck runs recovery's own reader: on what a kill leaves it must
    # find the directory clean or report recoverable damage only (a
    # torn WAL tail), and the restart that follows must recover.
    fsck_status=0
    fsck_out=$("$workdir/certsql" fsck "$datadir") || fsck_status=$?
    if [ "$fsck_status" -ne 0 ] && ! grep -q "recoverable damage only" <<<"$fsck_out"; then
        echo "crash-smoke: FAIL — fsck after kill -9 exited $fsck_status:" >&2
        echo "$fsck_out" >&2
        exit 1
    fi
    echo "crash-smoke: fsck after kill: $(tail -n 1 <<<"$fsck_out")"
done

# Final round: recover once more, verify, shut down cleanly, fsck.
start_server
rows=$(count_smoke_rows)
if [ -z "$rows" ] || [ "$rows" -lt "$acked_rows" ]; then
    echo "crash-smoke: FAIL — final recovery lost rows: $rows < $acked_rows" >&2
    exit 1
fi
echo "crash-smoke: final recovery holds $rows/$acked_rows acked rows"

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
pid=""
if [ "$status" -ne 0 ]; then
    echo "crash-smoke: FAIL — clean shutdown exited $status" >&2
    cat "$workdir/stderr.log" >&2
    exit 1
fi

if ! "$workdir/certsql" fsck "$datadir"; then
    echo "crash-smoke: FAIL — fsck found problems after a clean shutdown" >&2
    exit 1
fi

echo "crash-smoke: PASS ($ROUNDS kills, each fsck-checked, $acked_rows acked loads, fsck clean)"
