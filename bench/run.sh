#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout as `bash bench/run.sh --workload <name> --seed <n> --seconds <s>
# --trace <0|1>`; everything it writes (Go build cache, binary, traces,
# snapshot directories when /dev/shm is not a tmpfs) goes under
# .bench_build/ in that checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"

# The build needs nothing from the network: bench/go.mod replaces the one
# module it requires with the checkout itself, which has no dependencies.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOPROXY=off GOTOOLCHAIN=local

# In a directory that holds only the benchmark this fails (the replaced
# module is missing) and the script exits non-zero without a result.
go build -C "$here" -o "$build/tpdf-bench" . >&2

exec "$build/tpdf-bench" "$@"
