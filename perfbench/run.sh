#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ck34-cold --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache stay under .bench_build/, and user Go
# settings and telemetry are off, so the benchmark writes nothing outside
# the checkout.
set -euo pipefail
out=$(pwd)/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
