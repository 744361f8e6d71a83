#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh -workload ingest -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh compare -base a.json,b.json -head c.json,d.json
#
# Everything the build and the run write (Go build cache, module cache, the
# go command's configuration and telemetry, binary, WAL directories) goes
# under .bench_build/ in the current directory. The benchmark is its own
# module that builds against the parent directory's tsens module, so outside
# a full checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/tsens-bench" .)
exec "$out/tsens-bench" "$@"
