#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# flags, e.g.:
#
#   bash servebench/run.sh --workload fleet-kv --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build in the current directory: the binary, the Go
# build cache, the toolchain's temporary and config files, and the
# traced run's sampled request spans.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C servebench build -o "$out/servebench" .
exec "$out/servebench" "$@"
