#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's own source and runs it.
# Everything the build and the run write (Go build cache, binary, database
# directories) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
export TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
