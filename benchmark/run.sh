#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# its arguments through. Everything the build writes stays inside the
# checkout, under .bench_build: Go's build cache, its temporary files,
# and (through HOME) the go command's configuration and telemetry.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark

exec "$build/benchmark" "$@"
