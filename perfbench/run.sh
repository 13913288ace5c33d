#!/bin/sh
# Builds the benchmark program and dynsumd from the checkout it is run in,
# then runs the benchmark with the given arguments, e.g.
#
#	sh perfbench/run.sh --workload offline-clients --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache and the run's scratch files stay under $CARGO_TARGET_DIR
# (default .bench_build), so the benchmark writes nothing outside the
# checkout.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/dynsumd" ./cmd/dynsumd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dynsumd "$out/dynsumd" -out "$out" "$@"
