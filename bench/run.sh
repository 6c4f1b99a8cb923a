#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program. Build cache, temporary files, the go command's telemetry counters
# (which live under the user's config directory) and the binary stay inside
# the checkout (.bench_build/), so a run writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
mkdir -p "$GOTMPDIR"
XDG_CONFIG_HOME="$build/config" go build -C "$here" -buildvcs=false -o "$build/xpbench" .
cd "$root"
exec "$build/xpbench" "$@"
