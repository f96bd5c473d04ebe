#!/usr/bin/env bash
# Builds the live-stack benchmark from source and runs it with the given
# arguments (see main.go for the flags). Run from the repository root:
#
#	bash livebench/run.sh --workload echo --seed 1 --seconds 10 --trace 0
#
# Build output and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go telemetry off
go -C "$root/livebench" build -o "$out/livebench" . >&2
exec "$out/livebench" "$@"
