#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout, keeping every Go cache and temporary file there too, then runs
# it from the root with the given arguments. See cmd/bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/cmd/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
