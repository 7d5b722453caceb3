#!/bin/sh
# Replicated-tier smoke: build a small snapshot, cut it 2 ways, serve
# every range with 2 replicas behind the router, and prove the failover
# story over live HTTP — under sustained load-verb traffic, kill -9 and
# restart EVERY replica in turn (retire + readmit via POST
# /v1/admin/topology/reload), and require the load report to show zero
# client-visible errors with failovers > 0: the fleet absorbed a full
# rolling restart.
set -eu
cd "$(dirname "$0")/.."

PORT="${REPLICA_SMOKE_PORT:-19280}"
RANGES=2
REPLICAS=2
work="$(mktemp -d)"
pids=""
cleanup() {
    # shellcheck disable=SC2086
    [ -n "$pids" ] && kill $pids 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$work/parallellives" ./cmd/parallellives
pl="$work/parallellives"

echo "== snapshot + ${RANGES}-way cut"
"$pl" run -scale 0.01 -start 2004-01-01 -end 2007-01-01 \
    -experiments "" -snapshot-out "$work/lives.snap" >/dev/null 2>&1
"$pl" shard -snapshot "$work/lives.snap" -shards "$RANGES" -out "$work/lives.%d.snap" -verify 2>&1 | tail -1

wait_ready() { # url
    _tries=0
    while ! curl -sf -o /dev/null "$1/readyz"; do
        _tries=$((_tries + 1))
        [ "$_tries" -gt 100 ] && { echo "replica-smoke: $1 never became ready" >&2; exit 1; }
        sleep 0.1
    done
}

# Replica j of range i listens on PORT + 1 + i*REPLICAS + j.
replica_port() { echo $((PORT + 1 + $1 * REPLICAS + $2)); }

start_replica() { # range ordinal -> echoes pid
    "$pl" serve -listen "127.0.0.1:$(replica_port "$1" "$2")" \
        -snapshot "$work/lives.$1.snap" -mmap -replica "r$1-$2" >/dev/null 2>&1 &
    echo $!
}

echo "== start ${RANGES}x${REPLICAS} fleet + router"
route_args=""
i=0
while [ "$i" -lt "$RANGES" ]; do
    range_urls=""
    j=0
    while [ "$j" -lt "$REPLICAS" ]; do
        pid="$(start_replica "$i" "$j")"
        pids="$pids $pid"
        eval "pid_${i}_${j}=$pid"
        range_urls="$range_urls${range_urls:+,}http://127.0.0.1:$(replica_port "$i" "$j")"
        j=$((j + 1))
    done
    route_args="$route_args -shards $range_urls"
    i=$((i + 1))
done
i=0
while [ "$i" -lt "$RANGES" ]; do
    j=0
    while [ "$j" -lt "$REPLICAS" ]; do
        wait_ready "http://127.0.0.1:$(replica_port "$i" "$j")"
        j=$((j + 1))
    done
    i=$((i + 1))
done
# Cache off so every read exercises the live replica-pick path; breaker
# threshold 1 so a killed replica costs at most one failover per range
# before its breaker opens.
# shellcheck disable=SC2086
"$pl" route -listen "127.0.0.1:$PORT" $route_args -cache -1 \
    -breaker-threshold 1 -breaker-cooldown 300ms -probe-interval 200ms \
    -handshake-timeout 3s >/dev/null 2>&1 &
pids="$pids $!"
R="http://127.0.0.1:$PORT"
wait_ready "$R"

reps="$(curl -sf "$R/v1/shards" | jq '[.shards[].replicas | length] | unique')"
[ "$(echo "$reps" | jq -c .)" = "[$REPLICAS]" ] \
    || { echo "replica-smoke: want $REPLICAS replicas per range, got $reps" >&2; exit 1; }
echo "   $RANGES ranges x $REPLICAS replicas up"

echo "== rolling restart under load"
"$pl" load -target "$R" -snapshot "$work/lives.snap" \
    -rate 300 -duration 20s -seed 7 -label replica-smoke \
    >"$work/load.json" 2>"$work/load.log" &
load_pid=$!
sleep 1 # let the generator settle before the first kill

reload() { # expect_field expect_count
    out="$(curl -sf -X POST "$R/v1/admin/topology/reload")" \
        || { echo "replica-smoke: topology reload failed" >&2; exit 1; }
    got="$(echo "$out" | jq ".$1 | length")"
    [ "$got" = "$2" ] || { echo "replica-smoke: reload $1 = $got, want $2 ($out)" >&2; exit 1; }
}

i=0
while [ "$i" -lt "$RANGES" ]; do
    j=0
    while [ "$j" -lt "$REPLICAS" ]; do
        eval "victim=\$pid_${i}_${j}"
        kill -9 "$victim"
        sleep 0.4 # traffic lands on the dead replica: failovers, no errors
        reload retired 1
        pid="$(start_replica "$i" "$j")"
        pids="$pids $pid"
        eval "pid_${i}_${j}=$pid"
        wait_ready "http://127.0.0.1:$(replica_port "$i" "$j")"
        reload admitted 1
        echo "   replica r$i-$j killed, retired, restarted, readmitted"
        j=$((j + 1))
    done
    i=$((i + 1))
done

wait "$load_pid" || { echo "replica-smoke: load failed"; cat "$work/load.log" >&2; exit 1; }

echo "== load report"
jq -C . "$work/load.json" | sed 's/^/   /'
hard="$(jq '(.errors.http_5xx // 0) + (.errors.transport // 0) + (.errors.timeout // 0) + (.errors.shed // 0)' "$work/load.json")"
[ "$hard" = 0 ] || { echo "replica-smoke: $hard client-visible error(s) during the rolling restart" >&2; exit 1; }
jq -e '.failovers > 0' "$work/load.json" >/dev/null \
    || { echo "replica-smoke: rolling restart produced no failovers — was the dead replica ever picked?" >&2; exit 1; }
jq -e '.completed > 0 and .errors.ok > 0' "$work/load.json" >/dev/null \
    || { echo "replica-smoke: load run completed nothing" >&2; exit 1; }

echo "== final topology"
final="$(curl -sf "$R/v1/shards")"
echo "$final" | jq -e "[.shards[].replicas | length] | all(. == $REPLICAS)" >/dev/null \
    || { echo "replica-smoke: fleet not fully restored: $final" >&2; exit 1; }
gen="$(echo "$final" | jq .generation)"
echo "   all ranges back to $REPLICAS replicas (topology generation $gen)"

echo "replica-smoke: OK (rolling restart absorbed: 0 errors, $(jq .failovers "$work/load.json") failovers, $(jq '.errors.ok' "$work/load.json") ok)"
