# Development targets for the maskfrac repo. `make check` is the gate:
# it runs scripts/check.sh (formatting, vet, the full test suite, the
# e2e race runs, the MASKFRAC_EVAL_CHECK pass, the bench smokes and the
# L-shot gate). fmt, vet, test and race run single stages of it.

GO ?= go

.PHONY: all build fmt vet test race bench soak check

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# -short skips the multi-minute fracturing integration suites, which are
# too slow under the race detector; the concurrency-heavy tests
# (shapecache, fracserve, batch, cache) all still run.
race:
	$(GO) test -race -short ./...

# bench runs the quick benchmarks with -benchmem and records the
# results to BENCH_<date>.json; pass BENCH='.' BENCHTIME=3x to widen it
BENCH ?= BenchmarkShapeCache|BenchmarkBatchCache|BenchmarkEngineRegions|BenchmarkRefine
BENCHTIME ?= 1x
bench:
	sh scripts/benchstat.sh '$(BENCH)' '$(BENCHTIME)'

# soak holds an in-process cluster at a steady QPS and records the
# rolling time series + SLO verdict to BENCH_<date>-soak.json
SOAK_NODES ?= 3
SOAK_QPS ?= 150
SOAK_DURATION ?= 60s
soak:
	$(GO) run ./cmd/loadgen -soak -nodes $(SOAK_NODES) -qps $(SOAK_QPS) \
		-duration $(SOAK_DURATION) -method proto-eda \
		-json BENCH_$$(date +%F)-soak.json

check:
	sh scripts/check.sh
