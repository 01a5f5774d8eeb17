#!/bin/sh
# Builds the benchmark from the checkout this script sits in and runs it with
# the arguments given. Everything the Go toolchain writes (build cache, the
# binary) stays under .bench_build in that checkout.
set -e
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
