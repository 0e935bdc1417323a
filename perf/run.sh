#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from source inside
# this checkout (build cache and temp files included, so nothing is read or
# written outside it) and hand it the driver's flags. The harness builds
# cmd/mmserver itself, with the same environment.
set -euo pipefail
cd "$(dirname "$0")"
if [ ! -f ../go.mod ] || [ ! -d ../cmd/mmserver ]; then
	echo "perf: not inside an mmprofile checkout (no ../go.mod, ../cmd/mmserver)" >&2
	exit 2
fi
mkdir -p out/gotmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o out/perfbench .
exec out/perfbench "$@"
