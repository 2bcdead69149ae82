#!/usr/bin/env bash
# Builds pccsd and the benchmark from this checkout into .bench_build/ and
# runs the benchmark; all arguments go to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload decide --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Everything it writes (the build
# cache, the binaries, span files) stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pccsd || ! -f models/pccs-models.json || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a pccs checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/pccsd" ./cmd/pccsd
go build -C e2ebench -o "$out/e2ebench" .
exec "$out/e2ebench" -pccsd "$out/pccsd" -models models/pccs-models.json -out "$out" "$@"
