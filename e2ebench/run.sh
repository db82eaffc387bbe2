#!/usr/bin/env bash
# Builds the end-to-end benchmark and the supg-server binary it boots,
# then runs the benchmark with the given arguments. Run from the root of
# a checkout:
#
#   bash e2ebench/run.sh --workload warm-select --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch state
# all live under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a supg checkout (go.mod, internal/ and e2ebench/ not found)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off
# The toolchain's local telemetry counters live under the config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go build -o "$build/bin/supg-server" ./cmd/supg-server
(cd e2ebench && go build -o "$build/bin/e2ebench" .)

exec "$build/bin/e2ebench" -server-bin "$build/bin/supg-server" -work-dir "$build/e2ebench" "$@"
