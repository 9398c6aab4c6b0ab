#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload stress-lossy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the binary,
# the Go build cache, temporary files) goes under .bench_build/ in that root,
# and the build never touches the network. Build output goes to stderr, so
# the last line on stdout is always the benchmark's JSON result.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
