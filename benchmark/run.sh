#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the root of
# the checkout. Everything the build leaves behind (Go build cache,
# binary) goes under .bench_build/ in the checkout; results go under
# benchmark/out/. Nothing outside the checkout is read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$here" && go build -o "$build/cloudbench" .)
cd "$root"
exec "$build/cloudbench" "$@"
