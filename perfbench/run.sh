#!/usr/bin/env bash
# Builds dmserver and the benchmark binary from the checkout in the
# current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload bulk-blocks --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dmserver" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/dmserver and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go build -o "$out/dmserver" ./cmd/dmserver
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/dmserver" -work "$out" "$@"
