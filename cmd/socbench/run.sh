#!/usr/bin/env bash
# Builds socbench from the checkout it is run in, then runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/socbench/run.sh --workload live_repro --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and binary live under .socbench/ in the
# checkout, so a run reads and writes nothing outside it.
set -eu
out="$PWD/.socbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd cmd/socbench && go build -o "$out/socbench" .)
exec "$out/socbench" "$@"
