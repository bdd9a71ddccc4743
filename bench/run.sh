#!/bin/bash
# Entry point for BENCHMARK.json: builds snapshotd and the driver from
# the checkout this script sits in, then runs the driver with the
# arguments given (--workload, --seed, --seconds, --trace).
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, Go's temporary files and the binaries under
# .bench_build/, data directories, traces and results under bench-out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)

# The repository's go.mod is what makes this a checkout of the program;
# without it there is nothing to benchmark.
if [ ! -f "$root/go.mod" ]; then
	echo "bench: $root holds no go.mod: not a checkout of the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

(cd "$root" && go build -o "$build/bin/snapshotd" ./cmd/snapshotd)
(cd "$root/bench" && go build -o "$build/bin/bench" .)

cd "$root"
exec "$build/bin/bench" -snapshotd "$build/bin/snapshotd" -out "$root/bench-out" "$@"
