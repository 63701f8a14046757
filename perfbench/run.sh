#!/usr/bin/env bash
# run.sh — build `cardpi` and the perfbench program from this checkout's
# sources into .bench_build/ and run the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload hot-zipf-wire --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache included) stays inside
# .bench_build/ at the repository root, so the first run compiles the
# standard library and later runs reuse it. Build output goes to standard
# error; the last line of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/cardpi" ./cmd/cardpi >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/cardpi" -out "$out/perfbench-out" "$@"
