#!/usr/bin/env bash
# Builds fbdbench from source into .bench_build/ and runs it with the given
# arguments. Run from the repository root, for example:
#
#   bash fbdbench/run.sh --workload ap-stream --seed 1 --seconds 55 --trace 0
#
# The Go build cache and temporary files also live under .bench_build/, so
# building and running touch nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -C fbdbench -o "$out/fbdbench" .
exec "$out/fbdbench" "$@"
