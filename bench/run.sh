#!/usr/bin/env bash
# Builds the benchmark and runs one workload. Run it from the repository
# root:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the built binaries, every scratch file and the go
# command's own state (telemetry counters under the config directory) live
# under .bench_build/ in the checkout, so the benchmark writes nothing
# outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (need go.mod and bench/go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
