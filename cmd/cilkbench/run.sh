#!/usr/bin/env bash
# Builds cilkbench from this checkout's source and runs it with the given
# arguments. Everything the build and the run leave behind — Go's build
# cache, GOPATH and telemetry directory included — stays in .bench_build/ at
# the root of the checkout, and nothing is fetched from the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(cd "$here/../.." && pwd)/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$here" -o "$out/cilkbench" .
exec "$out/cilkbench" -moddir "$here" -outdir "$out" "$@"
