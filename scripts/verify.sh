#!/bin/sh
# Tier-1 verification: the DESIGN.md line cap, build, vet, the full test
# suite, and the race pass. Run from the repo root (make verify); `verify.sh race` runs the
# race pass alone (make race).
set -eu

# Packages whose whole suite runs under -race without -short: the
# concurrency-sensitive and fault-handling ones, plus core and intervals
# (the lifetime rules; their suites take milliseconds). Every other package
# under internal/, and the CLI under cmd/, races with -short.
FULL='faults|bgpscan|collector|restore|serve|obs|parallel|router|loadgen|stream|registry|core|intervals'

# named PKG TEST: one non-short property test under -race, failing if
# the name no longer matches a test (a rename must not silently drop it).
named() {
	go test -list "^$2\$" "$1" | grep -qx "$2" ||
		{ echo "verify: no test named $2 in $1" >&2; exit 1; }
	go test -race -count=1 -run "^$2\$" "$1"
}

# fuzz PKG TARGET: a short fuzz run of one target, failing the same way
# on a missing name.
fuzz() {
	go test -list "^$2\$" "$1" | grep -qx "$2" ||
		{ echo "verify: no fuzz target named $2 in $1" >&2; exit 1; }
	go test -run '^$' -fuzz "^$2\$" -fuzztime 10s "$1"
}

race() {
	echo "== go test -race ($FULL)"
	go test -race $(go list ./internal/... | grep -E "/($FULL)\$")
	echo "== go test -race -short (every other package under internal/, and cmd/)"
	go test -race -short $(go list ./internal/... | grep -vE "/($FULL)\$") ./cmd/...
	echo "== go test -race (parallel/sequential equivalence property)"
	named ./internal/pipeline/ TestParallelEquivalence
	echo "== go test -race (RunContext: cancelled before and during the scan)"
	named ./internal/pipeline/ TestRunContextCancellation
	echo "== go test -race (RunContext: the admin lens beside the scan fails, cancels and exits as the sequential run)"
	named ./internal/pipeline/ TestRunContextLensOverlap
	echo "== go test -race (scan spans report the attribute table's decoded, carried and compacted blocks)"
	named ./internal/pipeline/ TestScanReportsAttributeTable
	echo "== go test -race (bgpscan: prefix hash values pinned; checkpoints persist them)"
	named ./internal/bgpscan/ TestPrefixHashPinned
	echo "== go test -race (chaos over recycled archives: the fault lookahead copies what sources recycle)"
	named ./internal/pipeline/ TestChaosScanOverRecycledArchives
	echo "== go test -race (layering: the analysis packages link no simulator)"
	named ./internal/pipeline/ TestAnalysisLinksNoSimulator
	echo "== go test -race (stream crash-equivalence property)"
	named ./internal/stream/ TestCrashEquivalence
	echo "== go test -race (stream read-ahead: recycled look-ahead reads match plain reads)"
	named ./internal/stream/ TestDirSourceReadAheadMatchesPlainReads
	echo "== go test -race (collector prefix-table order and archive-buffer ownership properties)"
	named ./internal/collector/ TestPrefixTableKeepsRIBOrder
	named ./internal/collector/ TestAppendMRTReusesAndMatchesMRT
	echo "== go test -race (parallel.ForEach: the lowest failing index wins)"
	named ./internal/parallel/ TestForEachLowestErrorWins
	echo "== go test -race (operational oracle: pipeline.Run against the slow obvious reading of §4.2 + §6)"
	named ./internal/pipeline/ TestOperationalOracle
	echo "== go test -race (stat: fleet rows from /v1/shards + each replica's own /metrics)"
	named ./cmd/parallellives/ TestStatFleet
	echo "== go test -race (metric names and label cardinality across every tier)"
	named ./cmd/parallellives/ TestMetricNamesAndCardinality
	echo "== go test -race (router cache: no entry outlives an invalidation, in-flight fetches included)"
	named ./internal/router/ TestCacheNeverOutlivesInvalidation
}

if [ "${1:-}" = race ]; then
	race
	exit
fi

echo "== DESIGN.md line cap (996, ROADMAP's standing cap)"
lines=$(wc -l < DESIGN.md)
[ "$lines" -le 996 ] || { echo "verify: DESIGN.md has $lines lines, over the cap of 996" >&2; exit 1; }
echo "== go build"
go build ./...
echo "== go vet"
go vet ./...
echo "== go test"
go test ./...
echo "== fuzz smoke (the caches: the delegation series memory, the cross-day attribute table)"
fuzz ./internal/delegation/ FuzzParseSeries
fuzz ./internal/bgpscan/ FuzzObserveMRT
race
echo "verify: OK"
