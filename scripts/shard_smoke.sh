#!/bin/sh
# Sharded-tier smoke: build a small snapshot, cut it 4 ways, serve the
# shards behind the router, and prove the degradation story end to end —
# kill one shard process, watch its range fail fast (503 + Retry-After)
# while every other range and the aggregates (with the partial header)
# keep answering, then restart it and watch the breaker close again.
set -eu
cd "$(dirname "$0")/.."

PORT="${SHARD_SMOKE_PORT:-19080}"
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

echo "== snapshot + 4-way cut"
"$pl" run -scale 0.01 -start 2004-01-01 -end 2007-01-01 \
    -experiments "" -snapshot-out "$work/lives.snap" >/dev/null 2>&1
"$pl" shard -snapshot "$work/lives.snap" -shards 4 -out "$work/lives.%d.snap" -verify 2>&1 | tail -1

wait_ready() { # url
    _tries=0
    while ! curl -sf -o /dev/null "$1/readyz"; do
        _tries=$((_tries + 1))
        [ "$_tries" -gt 100 ] && { echo "shard-smoke: $1 never became ready" >&2; exit 1; }
        sleep 0.1
    done
}

start_shard() { # index -> echoes pid
    "$pl" serve -listen "127.0.0.1:$((PORT + 1 + $1))" \
        -snapshot "$work/lives.$1.snap" -mmap >/dev/null 2>&1 &
    echo $!
}

echo "== start 4 shards + router"
shard_urls=""
n=0
while [ "$n" -lt 4 ]; do
    pid="$(start_shard "$n")"
    pids="$pids $pid"
    [ "$n" = 3 ] && victim_pid="$pid"
    shard_urls="$shard_urls${shard_urls:+,}http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
n=0
while [ "$n" -lt 4 ]; do
    wait_ready "http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
# Cache disabled: a cached aggregate is answered by the router itself
# while its winner range (shard 0) is lit, so it would (correctly) keep
# serving the complete cached body while shard 3 is down — this smoke
# wants the live scatter path and its partial header instead.
"$pl" route -listen "127.0.0.1:$PORT" -shards "$shard_urls" -cache -1 \
    -breaker-threshold 2 -breaker-cooldown 500ms -probe-interval 300ms >/dev/null 2>&1 &
pids="$pids $!"
R="http://127.0.0.1:$PORT"
wait_ready "$R"

# An ASN owned by the last shard: its range starts at the shard's lo.
victim_lo="$(curl -sf "$R/v1/shards" | jq '.shards[3].lo')"
live_asn="$(curl -sf "$R/v1/shards" | jq '.shards[0].hi')" # any shard-0 ASN; a 404 is fine, it must just answer

expect() { # label want_code url
    got="$(curl -s -o /dev/null -w '%{http_code}' "$3")"
    [ "$got" = "$2" ] || { echo "shard-smoke: $1: got $got, want $2 ($3)" >&2; exit 1; }
    echo "   $1: $got"
}

echo "== healthy tier"
expect "taxonomy" 200 "$R/v1/taxonomy"
expect "victim-range ASN" "$(curl -s -o /dev/null -w '%{http_code}' "$R/v1/asn/$victim_lo")" "$R/v1/asn/$victim_lo"

echo "== kill shard 3 (pid $victim_pid)"
kill -9 "$victim_pid"
# Trip the breaker: threshold 2, so two failing requests open it.
curl -s -o /dev/null "$R/v1/asn/$victim_lo"
curl -s -o /dev/null "$R/v1/asn/$victim_lo"
expect "dead range fails fast" 503 "$R/v1/asn/$victim_lo"
ra="$(curl -s -o /dev/null -w '%{header{retry-after}}' "$R/v1/asn/$victim_lo" 2>/dev/null || true)"
[ -n "$ra" ] || echo "   (no Retry-After readable from this curl; skipping header check)"
expect "other ranges keep serving" "$(curl -s -o /dev/null -w '%{http_code}' "$R/v1/asn/$live_asn")" "$R/v1/asn/$live_asn"
expect "aggregates stay up (partial)" 200 "$R/v1/taxonomy"
partial="$(curl -s -D - -o /dev/null "$R/v1/taxonomy" | grep -i x-parallellives-partial | tr -d '\r' | awk '{print $2}')"
[ "$partial" = "3" ] || { echo "shard-smoke: partial header = '$partial', want 3" >&2; exit 1; }
echo "   partial header: $partial"

echo "== restart shard 3"
pid="$(start_shard 3)"
pids="$pids $pid"
wait_ready "http://127.0.0.1:$((PORT + 4))"
# Cooldown 500ms + probe every 300ms: the breaker half-opens and the
# probe's identity fetch closes it without burning a client request.
_tries=0
while :; do
    code="$(curl -s -o /dev/null -w '%{http_code}' "$R/v1/asn/$victim_lo")"
    [ "$code" != 503 ] && break
    _tries=$((_tries + 1))
    [ "$_tries" -gt 50 ] && { echo "shard-smoke: shard 3 never recovered" >&2; exit 1; }
    sleep 0.1
done
expect "recovered range" "$code" "$R/v1/asn/$victim_lo"
partial="$(curl -s -D - -o /dev/null "$R/v1/taxonomy" | grep -ic x-parallellives-partial || true)"
[ "$partial" = "0" ] || { echo "shard-smoke: partial header still present after recovery" >&2; exit 1; }
echo "   partial header gone"

echo "shard-smoke: OK (degraded-then-recovered)"
