#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomod"
export GOPATH="${build}/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
# The go command keeps its settings and telemetry under the config dir.
export XDG_CONFIG_HOME="${build}/config"
(
	cd "${root}/perfbench"
	go build -o "${build}/perfbench" .
)
exec "${build}/perfbench" "$@"
