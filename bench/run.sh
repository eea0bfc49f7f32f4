#!/usr/bin/env bash
# Builds drowsybench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload fleet-hourly --seed 1 --seconds 20 --trace 0
#
# Everything building and running writes (the Go build cache, temporary
# files, the binary, the benchmark's drowsyd state dirs) stays under
# .bench_build/ in the repository root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -f BENCHMARK.json ]; then
	echo "bench/run.sh: run from the repository root (go.mod, bench/go.mod and BENCHMARK.json are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/drowsybench.$$" ./cmd/drowsybench)
mv "$out/drowsybench.$$" "$out/drowsybench"
exec "$out/drowsybench" "$@"
