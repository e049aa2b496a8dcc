#!/usr/bin/env bash
# Builds gpufi-bench from source and runs it, keeping every file it
# writes (Go build cache, binary, scratch) under .bench_build/ in the
# checkout. Run from the repository root:
#
#   bash bench/run.sh --workload sw_hpc --seed 2021 --seconds 15 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: no gpufi module here; run it from a full checkout" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
start=$(date +%s.%N)
go build -o "$build/gpufi-bench" ./bench
GPUFI_BENCH_BUILD_S=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
export GPUFI_BENCH_BUILD_S
exec "$build/gpufi-bench" "$@"
