#!/usr/bin/env bash
# Builds the harness and tcqd from the checkout's sources into .bench_build/
# (build cache, go's temporary files and its telemetry counters included, so
# nothing is written outside the checkout) and runs the harness with the
# arguments given:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
  export GOPATH="$build/gopath"
fi

start=$(date +%s%N)
(cd "$here" && go build -o "$build/benchmark" . && go build -o "$build/tcqd" telegraphcq/cmd/tcqd)
echo "build_s $(( ($(date +%s%N) - start) / 1000000 )) ms (not gated)" >&2

cd "$here"
exec "$build/benchmark" -tcqd "$build/tcqd" -out "$here/out" "$@"
