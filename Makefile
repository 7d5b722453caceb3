.PHONY: build test vet race verify loc fuzz snapshot-smoke chaos-serve stage-report tail-smoke shard-smoke fleet-smoke replica-smoke bench-smoke

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# The race pass of scripts/verify.sh alone.
race:
	./scripts/verify.sh race

# Short fuzz pass over the parser no-panic targets, the delegation
# series against fresh parses, and the scanner's equivalence with its
# reference.
fuzz:
	go test ./internal/delegation/ -fuzz FuzzLenientParse -fuzztime 15s
	go test ./internal/delegation/ -fuzz FuzzParseSeries -fuzztime 15s
	go test ./internal/mrt/ -fuzz FuzzDecodeMRT -fuzztime 15s
	go test ./internal/bgpscan/ -fuzz FuzzObserveMRT -fuzztime 15s
	go test ./internal/lifestore/ -fuzz FuzzOpenBytes -fuzztime 15s
	go test ./internal/stream/ -fuzz FuzzCheckpointDecode -fuzztime 15s
	go test ./internal/obs/ -fuzz FuzzSpanHeader -fuzztime 15s

verify:
	./scripts/verify.sh

# Non-test Go lines outside benchmark/ — the number CHANGES.md tracks
# per PR.
loc:
	@total=0; for d in internal cmd examples; do \
		n=$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		echo "$$d $$n"; total=$$((total + n)); \
	done; echo "total $$total"

# End-to-end snapshot proof: build a small snapshot with serve -build, reopen
# it, and diff it against the in-memory dataset (-verify does the diff).
snapshot-smoke:
	go run ./cmd/parallellives serve -build -verify \
		-snapshot $${TMPDIR:-/tmp}/parallellives-smoke.snap \
		-scale 0.01 -start 2007-01-01 -end 2010-01-01
	rm -f $${TMPDIR:-/tmp}/parallellives-smoke.snap

# Serving-resilience smoke: the chaos soak under the race detector —
# fault window over a flaky store, breaker trip and recovery, mid-soak
# hot reload, zero corrupt 200 bodies.
chaos-serve:
	go test -race -short -count=1 -run TestChaosSoak ./internal/serve/ -v

# Sharded-tier smoke: snapshot → 4 shards → router, kill one shard and
# prove degraded-then-recovered behaviour over live HTTP.
shard-smoke:
	./scripts/shard_smoke.sh

# Fleet-observability smoke: router + 2 shards, one traced request must
# yield a span tree stitched across processes, /v1/debug/slow must
# aggregate both exemplar rings, and the stat verb must render a row per
# shard — the dead one UP 0 — before and after one shard is killed.
fleet-smoke:
	./scripts/fleet_smoke.sh

# Replicated-tier smoke: 2 ranges x 2 replicas behind the router; under
# sustained load-verb traffic, kill -9 and restart every replica in turn
# (retire + readmit via topology reload) and require zero client-visible
# errors with failovers > 0.
replica-smoke:
	./scripts/replica_smoke.sh

# Streaming-ingestion smoke: feed a ~60-day simulated collector window
# one day at a time, kill -9 the live tail mid-window, restart it from
# its checkpoint, and require the resumed tail's final snapshot to be
# byte-identical to a one-shot batch build (-verify-batch).
tail-smoke:
	./scripts/tail_smoke.sh

# Observability smoke: a small instrumented run must print a stage table
# with the scan stage in it.
stage-report:
	go run ./cmd/parallellives run -scale 0.01 -start 2006-01-01 -end 2007-01-01 \
		-experiments none -stage-report | grep -q bgpscan
	@echo "stage-report: OK"

# Benchmark-harness smoke: every workload for one second through the
# run.sh the benchmark itself runs — each must exit 0 and report
# "correct":true — then the harness's own tests. A build that compiles
# can still fail the harness; this catches it before a benchmark run.
bench-smoke:
	@for w in archive_analyse sim_run serve_direct serve_routed; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
		echo "$$out" | grep -q '"correct":true' || { echo "bench-smoke: $$w is not correct:"; echo "$$out"; exit 1; }; \
		echo "bench-smoke: $$w OK"; \
	done
	go test ./benchmark
