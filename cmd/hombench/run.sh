#!/usr/bin/env bash
# Builds hombench from the source tree in the current directory and runs it
# with the given arguments. Run it from the repository root:
#
#   bash cmd/hombench/run.sh -workload stream-json -seed 7 -seconds 15 -trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, and the toolchain's configuration
# and telemetry, which XDG_CONFIG_HOME moves there.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/hombench/go.mod ] || [ ! -d internal ]; then
	echo "hombench: run from the repository root (go.mod, internal/ and cmd/hombench/ must be here)" >&2
	exit 2
fi

work="$PWD/.bench_build"
mkdir -p "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOPATH="$work/gopath"
export XDG_CONFIG_HOME="$work/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd cmd/hombench && go build -o "$work/bin/hombench" .)
exec "$work/bin/hombench" -work "$work" "$@"
