#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, for example:
#
#   bash e2ebench/run.sh --workload anon-cow --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, traces, CPU profiles) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

# Keep the toolchain's caches, temp files and telemetry inside the
# checkout, and never let it fetch a different toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	XDG_CACHE_HOME="$out/home" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOPROXY=off GOENV=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
