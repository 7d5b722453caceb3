#!/bin/sh
# Fleet-observability smoke: build a small snapshot, cut it 2 ways,
# serve the shards behind the router with a fast federation scrape, and
# prove the cross-process story end to end — one traced request must
# come back with a span tree stitched across router and shard, the
# router's /metrics must grow the parallellives_fleet_* rollup for both
# shards, /v1/debug/slow must aggregate both shards' exemplar rings, and
# the stat dashboard must render a row per shard from one scrape.
set -eu
cd "$(dirname "$0")/.."

PORT="${FLEET_SMOKE_PORT:-19180}"
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

echo "== snapshot + 2-way cut"
"$pl" run -scale 0.01 -start 2004-01-01 -end 2007-01-01 \
    -experiments "" -snapshot-out "$work/lives.snap" >/dev/null 2>&1
"$pl" shard -snapshot "$work/lives.snap" -shards 2 -out "$work/lives.%d.snap" -verify 2>&1 | tail -1

wait_ready() { # url
    _tries=0
    while ! curl -sf -o /dev/null "$1/readyz"; do
        _tries=$((_tries + 1))
        [ "$_tries" -gt 100 ] && { echo "fleet-smoke: $1 never became ready" >&2; exit 1; }
        sleep 0.1
    done
}

echo "== start 2 shards + router (scrape every 300ms)"
shard_urls=""
n=0
while [ "$n" -lt 2 ]; do
    "$pl" serve -listen "127.0.0.1:$((PORT + 1 + n))" \
        -snapshot "$work/lives.$n.snap" -mmap >/dev/null 2>&1 &
    pids="$pids $!"
    shard_urls="$shard_urls${shard_urls:+,}http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
n=0
while [ "$n" -lt 2 ]; do
    wait_ready "http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
"$pl" route -listen "127.0.0.1:$PORT" -shards "$shard_urls" \
    -scrape-interval 300ms >/dev/null 2>&1 &
pids="$pids $!"
R="http://127.0.0.1:$PORT"
wait_ready "$R"

echo "== stitched trace"
# A scatter endpoint so the trace fans out; the traceparent opts in.
tp="00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
span="$(curl -sf -D - -o /dev/null -H "traceparent: $tp" "$R/v1/taxonomy" \
    | tr -d '\r' | awk -F': ' 'tolower($1) == "x-parallellives-span" {print $2}')"
[ -n "$span" ] || { echo "fleet-smoke: traced request returned no X-Parallellives-Span header" >&2; exit 1; }
echo "$span" | jq -e '.traceId == "4bf92f3577b34da6a3ce929d0e0e4736"' >/dev/null \
    || { echo "fleet-smoke: router span does not join the caller trace: $span" >&2; exit 1; }
stitched="$(echo "$span" | jq '[.children[]? | select(.name | startswith("shard[")) | .children[]? | select(.name | startswith("serve "))] | length')"
[ "$stitched" = 2 ] || { echo "fleet-smoke: want 2 stitched shard-side serve spans, got $stitched: $span" >&2; exit 1; }
echo "   trace joined, $stitched shard-side spans stitched in"

# An untraced request must stay clean of the span header.
plain="$(curl -sf -D - -o /dev/null "$R/v1/taxonomy" | grep -ic x-parallellives-span || true)"
[ "$plain" = 0 ] || { echo "fleet-smoke: untraced request leaked a span header" >&2; exit 1; }

echo "== federated metrics"
_tries=0
while :; do
    up="$(curl -sf "$R/metrics" | grep -c '^parallellives_fleet_shard_up{[^}]*} 1$' || true)"
    [ "$up" = 2 ] && break
    _tries=$((_tries + 1))
    [ "$_tries" -gt 50 ] && { echo "fleet-smoke: fleet rollup never saw both shards up" >&2; exit 1; }
    sleep 0.1
done
metrics="$(curl -sf "$R/metrics")"
echo "$metrics" | grep -q '^parallellives_fleet_shards 2$' \
    || { echo "fleet-smoke: parallellives_fleet_shards != 2" >&2; exit 1; }
echo "$metrics" | grep -q '^parallellives_fleet_generation_skew 0$' \
    || { echo "fleet-smoke: generation skew != 0 on a fresh fleet" >&2; exit 1; }
echo "$metrics" | grep -q '^parallellives_fleet_requests{shard="0",replica="0"}' \
    || { echo "fleet-smoke: no per-replica request rollup" >&2; exit 1; }
echo "   both shards up, skew 0, per-replica rollup present"

echo "== slow-request exemplars"
curl -sf "$R/v1/debug/slow" | jq -e \
    '(.router.seen >= 1) and (.shards | length == 2) and ([.shards[] | select(.error == null or .error == "")] | length == 2)' >/dev/null \
    || { echo "fleet-smoke: /v1/debug/slow aggregation failed: $(curl -s "$R/v1/debug/slow")" >&2; exit 1; }
echo "   router + both shard rings aggregated"

echo "== stat dashboard"
stat="$("$pl" stat -url "$R")"
echo "$stat" | sed 's/^/   /'
rows="$(echo "$stat" | awk '$1 == "0" || $1 == "1"' | grep -c closed)"
[ "$rows" = 2 ] || { echo "fleet-smoke: stat rendered $rows shard rows, want 2" >&2; exit 1; }

echo "fleet-smoke: OK (stitched trace + federated metrics + exemplars + dashboard)"
