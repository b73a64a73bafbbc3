#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash _cwxbench/run.sh --workload fleet|dashboard|federation \
#       --seed <n> --seconds <s> --trace 0|1
#
# Everything the build and run write stays under <repo>/.bench_build:
# the Go build cache, the benchmark binary and the span files of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -buildvcs=false -o "$out/cwxbench" .
rev=none
if [ -d "$root/.git" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
CWXBENCH_GIT_REV="$rev" exec "$out/cwxbench" -root "$root" "$@"
