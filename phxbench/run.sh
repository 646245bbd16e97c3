#!/usr/bin/env bash
# Builds the cluster benchmark from the checkout's sources and runs it.
#
#   bash phxbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash phxbench/run.sh --knee [--seed <n>]   # offered-rate sweep on bulletin-read
#   bash phxbench/run.sh --selftest            # short harness self-test
#
# Run from the repository root. Every build product (Go build cache,
# binary, span dumps) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in $out too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=
export GOTMPDIR=$out

if [[ ${1:-} == --selftest ]]; then
	cd "$root/phxbench"
	exec go test -count=1 -timeout 600s ./...
fi

(cd "$root/phxbench" && go build -o "$out/phxbench" .)
exec "$out/phxbench" -root "$root" -out "$out" "$@"
