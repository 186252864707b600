GO ?= go

.PHONY: build test bench check loc

build:
	$(GO) build ./...

# test also vets and tests benchmark/, a module of its own that the root
# module's ./... does not reach.
test:
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench runs the orchestrator benchmark suite (bench_test.go at the
# repo root: the Chapter 8 figures) and prints its table. The end-to-end
# benchmark is benchmark/ (BENCHMARK.json).
bench:
	./scripts/bench.sh

# check is the pre-merge gate: static analysis plus the full test suite
# under the race detector (the fan-out orchestration is concurrent, so
# every run doubles as a race hunt).
check:
	./scripts/check.sh

# loc prints the size every CHANGES.md entry and ROADMAP claim quotes:
# non-test Go lines outside benchmark/, per package and in total.
loc:
	./scripts/loc.sh
