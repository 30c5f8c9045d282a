#!/usr/bin/env bash
# Builds the benchmark and dftp-serve from the sources of the checkout it
# is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, span files) stays under .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f perfbench/go.mod || ! -f go.mod ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(
	cd perfbench
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/dftp-serve" freezetag/cmd/dftp-serve
) >&2
exec "$out/bin/perfbench" --serve-bin "$out/bin/dftp-serve" --out "$out" "$@"
