#!/usr/bin/env bash
# Builds the benchmark and heraldd from the checkout it runs in, then
# runs one workload; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload design-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes,
# the Go build cache and Go's own configuration directory included,
# stays under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/heraldd" ./cmd/heraldd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -heraldd "$out/heraldd" "$@"
