#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench
# in the current directory: the Go build cache, temporary files, the
# binary, saved catalogs and span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
