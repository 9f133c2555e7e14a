#!/usr/bin/env bash
# Builds the simbench binary from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash simbench/run.sh --workload dense-5k --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/simbench in the checkout, and nothing is downloaded.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/simbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
go -C "$here" build -o "$out/simbench" .
exec "$out/simbench" "$@"
