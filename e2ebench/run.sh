#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# from the checkout root, passing every argument through, e.g.
#
#   bash e2ebench/run.sh --workload fleet-forrester --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" \
  GOTMPDIR="$root/.bench_build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd e2ebench && go build -o ../.bench_build/e2ebench .) >&2
exec .bench_build/e2ebench "$@"
