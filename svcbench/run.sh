#!/usr/bin/env bash
# Builds the thinslice server and the svcbench load generator from the
# checkout in the current directory, then runs one benchmark run:
#
#   bash svcbench/run.sh --workload cold_javac --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the two binaries and one JSON record per
# run (raw samples, /statsz scrapes, host fingerprint).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/thinslice" || ! -f "$root/svcbench/go.mod" ]]; then
	echo "svcbench: run from the root of a thinslice checkout" >&2
	exit 2
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/runs"
go build -o "$out/bin/thinslice" ./cmd/thinslice
(cd "$root/svcbench" && go build -o "$out/bin/svcbench" .)
exec "$out/bin/svcbench" --bin "$out/bin/thinslice" --out "$out/runs" "$@"
