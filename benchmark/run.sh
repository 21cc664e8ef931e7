#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh steady    # two sets of ten runs per workload
#
# Everything the build writes (binary, Go build cache, temp files, the go
# command's own config and telemetry) stays under .bench_build at the
# checkout root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/golapi-benchmark" .)
cd "$root"
exec "$out/golapi-benchmark" "$@"
