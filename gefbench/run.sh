#!/usr/bin/env bash
# Builds the gef binaries and the gefbench program from the checkout's
# source, then runs gefbench with the given arguments:
#
#   bash gefbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Every build and run artifact stays
# under .bench_build/ in the checkout (Go build cache included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gef" || ! -f "$root/gefbench/go.mod" ]]; then
    echo "gefbench: run from the root of a gef checkout (go.mod, cmd/gef and gefbench/ are required)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/gef ./cmd/forestgen
(cd "$root/gefbench" && go build -o "$out/bin/gefbench" .)
exec "$out/bin/gefbench" -root "$root" -bin "$out/bin" "$@"
