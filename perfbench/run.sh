#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, stored graphs and traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The go command keeps its module cache, settings and telemetry under
# HOME; point it into the checkout too.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
	go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" -tracedir "$out/traces" "$@"
