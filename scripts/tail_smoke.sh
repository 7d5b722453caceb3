#!/bin/sh
# End-to-end crash-recovery smoke (make tail-smoke): a simulated feeder
# publishes a ~60-day collector window one day at a time while a live
# tail ingests it with durable checkpoints; mid-run the tailer is killed
# with SIGKILL (no chance to clean up), then restarted with
# -verify-batch, which requires the resumed tail to finish the window
# and produce a snapshot byte-identical to a one-shot batch build.
set -eu
cd "$(dirname "$0")/.."

# The window must span more than ~41 days (worldsim plants its large
# leaks inside Intn(days-40)); 2006-06-01..2006-07-31 is 61 days.
START=2006-06-01
END=2006-07-31
SCALE=0.01

dir="$(mktemp -d)"
feed_pid=""
cleanup() {
    [ -n "$feed_pid" ] && kill "$feed_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

echo "== build"
go build -o "$dir/parallellives" ./cmd/parallellives
pl="$dir/parallellives"

common="-scale $SCALE -start $START -end $END"

echo "== start the simulated feed (one day per 50ms)"
"$pl" feed -tail-dir "$dir/days" $common \
    -feed-interval 50ms >"$dir/feed.log" 2>&1 &
feed_pid=$!

echo "== start the tail, then kill -9 it mid-window"
"$pl" tail -tail-dir "$dir/days" -checkpoint "$dir/ckpt" $common \
    -snapshot-every 10 >"$dir/tail1.log" 2>&1 &
tail_pid=$!
sleep 2
kill -9 "$tail_pid" 2>/dev/null || true
wait "$tail_pid" 2>/dev/null || true
echo "   killed tailer after 2s; last checkpointed position survives in $dir/ckpt"

echo "== wait for the feed to finish publishing the window"
wait "$feed_pid"
feed_pid=""

echo "== restart the tail from its checkpoint with -verify-batch"
"$pl" tail -tail-dir "$dir/days" -checkpoint "$dir/ckpt" $common \
    -snapshot-every 10 -verify-batch 2>&1 | tee "$dir/tail2.log"

grep -q "resuming from checkpoint" "$dir/tail2.log" || {
    echo "tail-smoke: FAIL (restart did not resume from the checkpoint)"
    exit 1
}
grep -q "verify-batch OK" "$dir/tail2.log" || {
    echo "tail-smoke: FAIL (no byte-identical batch verification)"
    exit 1
}
echo "tail-smoke: OK (kill -9 + restart converged to the batch-identical snapshot)"
