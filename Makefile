GO ?= go

.PHONY: build test bench bench-score bench-fleet bench-memdb bench-route check

build:
	$(GO) build ./...

# test also vets and tests benchmark/, a module of its own that the root
# module's ./... does not reach.
test:
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs the orchestrator benchmark suite (bench_test.go at the
# repo root) and writes machine-readable results to BENCH_core.json via
# cmd/benchjson; the raw text table still prints to the terminal.
bench:
	./scripts/bench.sh BENCH_core.json

# bench-score runs the scoring fast-path microbenchmarks (incremental
# embedding, sum-vector inter-similarity, full scoring pass) and writes
# BENCH_score.json; see DESIGN.md "Scoring fast path".
bench-score:
	./scripts/bench_score.sh BENCH_score.json

# bench-fleet runs the model-fleet benchmarks (a dying replica's cost
# before/after its breaker opens, p99 with and without hedging) and
# writes BENCH_fleet.json; see DESIGN.md "Model fleet".
bench-fleet:
	./scripts/bench_fleet.sh BENCH_fleet.json

# bench-memdb runs the memory-substrate benchmarks (concurrent mixed
# insert/query throughput sharded vs single-lock at 1/4/16 goroutines,
# uncontended query latency, answer-cache cold-vs-warm hit rate) and
# writes BENCH_memdb.json.
bench-memdb:
	./scripts/bench_memdb.sh BENCH_memdb.json

# bench-route runs the predictive-routing benchmark (family-clustered
# traffic with routing off vs on: fan-out width, throughput, and answer
# quality) and writes BENCH_route.json; see DESIGN.md "Predictive
# routing".
bench-route:
	./scripts/bench_route.sh BENCH_route.json

# check is the pre-merge gate: static analysis plus the full test suite
# under the race detector (the fan-out orchestration is concurrent, so
# every run doubles as a race hunt).
check:
	./scripts/check.sh
