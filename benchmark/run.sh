#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# It is the benchmark's build file: the Go build cache, the go command's own
# configuration directory (its telemetry counters), its temporary work
# directory and the binary live under .bench_build in the checkout, so
# nothing outside the checkout is written, and a second run reuses the cache
# and the binary. Arguments pass through to the binary (see README.md).
# `go run ./benchmark` is the same program with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: the acctee module (go.mod, internal/) is not in $PWD; nothing to build" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# With no mode file the go command defaults to telemetry mode "local" and
# starts a detached child of itself that outlives the build; "off" starts none.
echo "off 2024-01-01" >"$build/config/go/telemetry/mode"
bin="$build/acctee-benchmark"
[ -x "$bin" ] && warm=0 || warm=1
go build -o "$bin" ./benchmark
# For two to three minutes after a build the shared reference host runs the
# benchmark slowly and unevenly (gw-echo: 3100 ops/s in the first 20 s run
# after one, 4200 in the second, 4800 from the fifth on; with a minute of
# load in between the dip came a minute later). So the run that builds the
# binary, the first in a checkout, loads the machine for as long as that
# took in five passes of six and throws the numbers away.
if [ "$warm" = 1 ]; then
	"$bin" --workload gw-echo --seed 1 --seconds 150 --trace 0 >/dev/null 2>&1 || true
fi
exec "$bin" "$@"
