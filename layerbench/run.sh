#!/usr/bin/env bash
# Builds the layered NL-serving benchmark and the nlidb binary its
# serve-remote workload forks, then runs one measurement:
#
#   bash layerbench/run.sh --workload sales-cold --seed 1 --seconds 10 --trace 0
#
# Run from the root of a source checkout. Build outputs, the Go build
# cache and span dumps stay under .bench_build/ in that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/nlidb || ! -d internal ]]; then
	echo "layerbench: no nlidb source tree at $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/nlidb" ./cmd/nlidb >&2
(cd layerbench && go build -o "$out/layerbench" .) >&2
exec "$out/layerbench" -nlidb "$out/nlidb" -out "$out" "$@"
