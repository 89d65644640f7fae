#!/bin/sh
# bench.sh — the repo's benchmark trajectory, one smoke iteration each.
#
# Runs the filterlist matching-engine benchmarks (hit, miss, bare-hostname
# probe, index build, parse), the pipeline's parallel-analysis benchmark,
# the dataset loader, and the serving layer's hot-path benchmarks with
# -benchtime=1x -count=1: fast enough for CI, and a compile+run check that
# every benchmark still works. Real before/after numbers are collected with
# longer benchtimes and recorded in BENCH_*.json.
set -eu
cd "$(dirname "$0")/.."

go test -run '^$' -bench 'BenchmarkMatch|BenchmarkEngineBuild|BenchmarkParse' \
	-benchtime=1x -count=1 ./internal/filterlist/
go test -run '^$' -bench 'BenchmarkProcessParallel' \
	-benchtime=1x -count=1 ./internal/pipeline/
go test -run '^$' -bench 'BenchmarkServeQueries|BenchmarkSnapshotBuild|BenchmarkSwapUnderLoad' \
	-benchtime=1x -count=1 ./internal/serve/
# The analyzer's own latency budget: one full self-run (load, type-check,
# call-graph build, all seven checks over the module) must stay well
# inside 10s.
go test -run '^$' -bench 'BenchmarkSelfRun' \
	-benchtime=1x -count=1 ./internal/lint/
# Measurement-plane hot paths: the zero-alloc probe engine (allocs/op must
# read 0 for BenchmarkTraceroute) and the memoized end-to-end study. One
# smoke iteration each; BENCH_9.json holds the long-benchtime numbers.
go test -run '^$' -bench 'BenchmarkTraceroute$|BenchmarkPing|BenchmarkBaseRTT' \
	-benchmem -benchtime=1x -count=1 ./internal/netsim/
go test -run '^$' -bench 'BenchmarkRenderParse' \
	-benchtime=1x -count=1 ./internal/tracert/
# The reload path's decode layer: core.LoadDataset over the seed-42
# study's 23 datasets saved as .json.gz.
go test -run '^$' -bench 'BenchmarkLoadDataset' \
	-benchmem -benchtime=1x -count=1 ./internal/core/
go test -run '^$' -bench 'BenchmarkRunStudyEndToEnd' \
	-benchmem -benchtime=1x -count=1 .
