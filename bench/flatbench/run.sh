#!/usr/bin/env bash
# Builds flatbench (Release, into .bench_build/flatbench) when needed and runs
# it with the given arguments. Run from the root of a flatnet checkout:
#
#   bash bench/flatbench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
#
# Build output goes to stderr; stdout carries only flatbench's own output,
# whose last line is the JSON result.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -f src/CMakeLists.txt || ! -f bench/flatbench/CMakeLists.txt ]]; then
  echo "flatbench: run from the root of a flatnet checkout (flatnet sources not found)" >&2
  exit 2
fi

build=.bench_build/flatbench
jobs=$(nproc 2>/dev/null || echo 4)
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S bench/flatbench -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" --target flatbench >&2
exec "$build/flatbench" "$@"
