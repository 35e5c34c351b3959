#!/bin/sh
# check.sh — the repo's CI gate: formatting, vet, the full test suite,
# the race-detector runs, the evaluator cross-check pass, the benchmark
# smokes and the L-shot gate. `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

# -shuffle=on randomizes test execution order so hidden inter-test
# dependencies surface in CI rather than in a refactor
echo "== go test =="
go test -shuffle=on ./...

# the service end-to-end tests exercise the worker pool, the metrics
# middleware and graceful drain concurrently; run them all under the
# race detector explicitly (the -short sweep below also covers them,
# but this line keeps the e2e surface racing even if -short semantics
# change)
echo "== go test -race fracserve e2e =="
go test -race -run 'TestE2E' ./internal/fracserve

# the parallel deletion trials must give the sequential scan's shots
# and exact evaluator counters with 0 and 3 pool tokens, and a panic on
# a helper goroutine (engine region or deletion trial) must surface on
# the caller after every helper has stopped; run these under the race
# detector explicitly (the fracserve panic and shared-pool tests are
# TestE2E* and race in the line above)
echo "== go test -race parallel trials and panic containment =="
go test -race -count=1 -run 'TestRemoveAndRepairParallelMatchesSequential|TestFan|TestSolveRegionPanicSurfacesOnCaller|TestSolveAttachesPool' ./internal/fracture/mbf ./internal/fracture/engine

# the cluster e2e smoke spawns 3 in-process fracd servers, routes a
# small hierarchical mask through the consistent-hash ring, and asserts
# the single-solve-per-congruence-class invariant (sum of cache misses
# across nodes == distinct canonical keys via /stats), plus node-kill
# failover with zero lost placements — all under the race detector
echo "== go test -race cluster e2e (3-node smoke) =="
go test -race -run 'TestClusterE2E' ./internal/cluster

# the stencil planner e2e mines per-class placement stats from all 3
# nodes of a live cluster (/stats?classes=K), plans a CP stencil, and
# asserts the plan beats the no-CP baseline, the per-class savings sum
# exactly to the reported total, and a re-mine + re-plan is
# byte-identical — the determinism contract the golden test pins
echo "== go test -race stencil plan e2e (3-node mine) =="
go test -race -run 'TestStencilPlanE2E' ./internal/cluster

# the soak smoke holds 3 in-process nodes at a steady QPS for a few
# seconds under the race detector and asserts a gap-free rolling time
# series (zero dropped windows) plus at least one complete cross-node
# trace waterfall stitched from the daemons' span trees
echo "== go test -race loadgen soak smoke (3-node) =="
go test -race -count=1 -run 'TestSoakSmoke' ./cmd/loadgen

# every evaluator client runs once more with the cross-check on: each
# cover.Eval mutation — per-shot dose steps (vdose), matching pursuit's
# residual reads, the candidate scorer's strip tables, the refinement
# moves mbf and proto-eda score on the near bitmap — re-verifies its
# failing and near bitmaps against its own dose field and its stats
# against a from-scratch evaluation
echo "== go test cover.Eval clients under MASKFRAC_EVAL_CHECK =="
MASKFRAC_EVAL_CHECK=1 go test -count=1 ./internal/cover ./internal/fracture/vdose ./internal/fracture/mp ./internal/fracture/gsc ./internal/fracture/fixup ./internal/fracture/mbf ./internal/fracture/protoeda

# a short fuzz run of the move scorer beyond the committed seed corpus:
# DeltaCost must equal the full strip scan bit for bit and ApplyDelta
# must realize it, on random shots, doses, L-pairs and both models
echo "== go test -fuzz FuzzDeltaCost (10s) =="
go test -run '^$' -fuzz '^FuzzDeltaCost$' -fuzztime 10s -parallel 2 ./internal/cover

# -short skips the multi-minute fracturing integration suites, which are
# too slow under the race detector; the concurrency-heavy tests
# (shapecache, fracserve, batch, cache, telemetry) all still run.
echo "== go test -race -short =="
go test -race -short ./...

# one pass of the refinement benchmark exercises the incremental
# evaluator's strip scans, effort counters and observer hook under the
# race detector on every check
echo "== go test -race -bench Refine (smoke) =="
go test -race -run '^$' -bench 'BenchmarkRefine' -benchtime 1x .

# one pass of the full-mask pipeline benchmark streams the demo mask
# through 3 in-process nodes under the race detector: the producer's
# once-per-(Cell, Shape, Orient) canonicalization, the workers, the
# class memo and the reorder window all run concurrently
echo "== go test -race -bench RunPipeline (smoke) =="
go test -race -run '^$' -bench 'BenchmarkRunPipeline' -benchtime 1x ./internal/cluster

# the engine benchmark smoke runs the work-stealing region scheduler at
# -cpu 1 and 4 under the race detector (identical shot lists asserted
# inside the benchmark), then the multicore speedup gate in two tiers:
# ≥2x at 4 workers and the 2-CPU tier's measured bound at 2. A tier the
# machine has too few CPUs for logs an explicit SKIP — a visible skip,
# never a silent pass.
echo "== go test -race -bench EngineRegions -cpu 1,4 (smoke) =="
go test -race -run '^$' -bench 'BenchmarkEngineRegions' -benchtime 1x -cpu 1,4 .

echo "== go test engine multicore speedup gate (4- and 2-CPU tiers) =="
go test -count=1 -run 'TestEngineParallelSpeedup' -v . | grep -E 'SKIP|PASS|FAIL|speedup' || true
go test -count=1 -run 'TestEngineParallelSpeedup' .

# the L-shot gate fractures the EXPERIMENTS.md L-shape suite with both
# mbf and mbf-l under the race detector and asserts the never-worse
# guarantee: per shape, mbf-l flashes <= mbf shots at no more CD
# violations. The determinism companion pins identical shot and pair
# lists across 1/2/8 engine workers.
echo "== go test -race L-shot gate (flashes <= rectangle shots) =="
go test -race -count=1 -run 'TestLShotSuiteGate|TestLShotEngineDeterminism' .

echo "check ok"
