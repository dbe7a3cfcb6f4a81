#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash cdgbench/run.sh --workload fig4_l3cache --seed 1 --seconds 20 --trace 0
#
# Build state (Go build cache, binary) stays under .bench_build and run
# state (the campaigns data root) under cdgbench/data, both inside the
# checkout. Without the repository's sources next to cdgbench the build
# fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/cdgbench" .)
exec "$out/cdgbench" -data "$here/data" -out "$out" "$@"
