#!/usr/bin/env bash
# Builds the benchmark binary once (into benchmark/.build, with its own Go
# build cache so nothing outside the checkout is written) and runs it.
# The binary is never started through `go run`, and starts no process of
# its own.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
bin="$here/.build/bench"
if [ ! -f "$root/go.mod" ]; then
  echo "benchmark: $root is not the mobistreams module; nothing to measure" >&2
  exit 2
fi
stale=1
if [ -x "$bin" ]; then
  stale="$(find "$root" -path "$here/.build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit | wc -l)"
fi
if [ "$stale" != 0 ]; then
  mkdir -p "$here/.build"
  GOTELEMETRY=off GOTOOLCHAIN=local \
    GOCACHE="$here/.build/gocache" GOPATH="$here/.build/gopath" \
    go build -C "$here" -o .build/bench . >&2
fi
exec "$bin" "$@"
