#!/bin/sh
# Fleet-observability smoke: build a small snapshot, cut it 2 ways,
# serve the shards behind the router, and prove the cross-process story
# end to end — one traced request must come back with a span tree
# stitched across router and shard, /v1/debug/slow must aggregate both
# shards' exemplar rings, and the stat dashboard must render a row per
# shard from /v1/shards plus each shard's own /metrics — and keep
# rendering, with the dead shard's row UP 0, after one shard is killed.
# In between, a shard reloaded directly must show through the router's
# cache within the probe interval.
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

echo "== start 2 shards + router"
shard_urls=""
n=0
while [ "$n" -lt 2 ]; do
    "$pl" serve -listen "127.0.0.1:$((PORT + 1 + n))" \
        -snapshot "$work/lives.$n.snap" -mmap >/dev/null 2>&1 &
    pids="$pids $!"
    shard1_pid="$!" # ends up naming the last shard started: shard 1
    shard_urls="$shard_urls${shard_urls:+,}http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
n=0
while [ "$n" -lt 2 ]; do
    wait_ready "http://127.0.0.1:$((PORT + 1 + n))"
    n=$((n + 1))
done
"$pl" route -listen "127.0.0.1:$PORT" -shards "$shard_urls" >/dev/null 2>&1 &
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

echo "== slow-request exemplars"
curl -sf "$R/v1/debug/slow" | jq -e \
    '(.router.seen >= 1) and (.shards | length == 2) and ([.shards[] | select(.error == null or .error == "")] | length == 2)' >/dev/null \
    || { echo "fleet-smoke: /v1/debug/slow aggregation failed: $(curl -s "$R/v1/debug/slow")" >&2; exit 1; }
echo "   router + both shard rings aggregated"

echo "== stat dashboard"
# stat_rows OUTPUT: the data rows (SHARD is a number), one per line.
stat_rows() { echo "$1" | awk '$1 == "0" || $1 == "1"'; }
stat="$("$pl" stat -url "$R")"
echo "$stat" | sed 's/^/   /'
# Both shards UP 1, breaker closed, GEN 1, and REQS > 0 after the traced
# requests above (every shard answered the taxonomy scatter).
rows="$(stat_rows "$stat" | awk '$3 == "1" && $4 == "closed" && $5 == "1" && $6 > 0' | wc -l)"
[ "$rows" -eq 2 ] || { echo "fleet-smoke: stat rendered $rows healthy shard rows, want 2" >&2; exit 1; }

echo "== router cache follows a reload behind its back"
# etag URL: the ETag header of one GET.
etag() { curl -sf -D - -o /dev/null "$1" | tr -d '\r' | awk -F': ' 'tolower($1) == "etag" {print $2}'; }
cached="$(etag "$R/v1/taxonomy")"
[ "$(etag "$R/v1/taxonomy")" = "$cached" ] || { echo "fleet-smoke: warm taxonomy changed ETag" >&2; exit 1; }
# Shard 0 is the aggregates' winner range; reload it directly, not
# through the router, so only the router's probe can notice.
S0="http://127.0.0.1:$((PORT + 1))"
curl -sf -X POST "$S0/v1/admin/reload" >/dev/null || { echo "fleet-smoke: direct shard reload failed" >&2; exit 1; }
want="$(etag "$S0/v1/taxonomy")"
[ "$want" != "$cached" ] || { echo "fleet-smoke: shard reload did not rotate its ETag" >&2; exit 1; }
_tries=0
while [ "$(etag "$R/v1/taxonomy")" != "$want" ]; do
    _tries=$((_tries + 1))
    [ "$_tries" -gt 50 ] && { echo "fleet-smoke: router still serves $(etag "$R/v1/taxonomy") 5s after the shard moved to $want" >&2; exit 1; }
    sleep 0.1
done
echo "   router ETag $cached -> $want within the probe interval"

echo "== stat with one shard dead"
kill -9 "$shard1_pid"
wait "$shard1_pid" 2>/dev/null || true
stat="$("$pl" stat -url "$R")" \
    || { echo "fleet-smoke: stat exited non-zero with one shard dead" >&2; exit 1; }
echo "$stat" | sed 's/^/   /'
stat_rows "$stat" | awk '$1 == "1" && $3 == "0" && $6 == "-" { dead++ } $1 == "0" && $3 == "1" && $6 > 0 { live++ } END { exit !(dead == 1 && live == 1) }' \
    || { echo "fleet-smoke: want shard 1 UP 0 with - numbers and shard 0 still UP 1" >&2; exit 1; }

echo "fleet-smoke: OK (stitched trace + exemplars + dashboard, one shard dead included)"
