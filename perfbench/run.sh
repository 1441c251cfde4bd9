#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload:
#
#   bash perfbench/run.sh --workload audit-match --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# scratch file the benchmark writes live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: go.mod, internal/ and perfbench/ must all be present" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
