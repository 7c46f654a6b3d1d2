#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload replay-oltp-warm --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) and the
# traced run's span files stay under .bench_build/ in the current
# directory. The build needs the enclosing cuckoodir module (../go.mod
# from this directory); without it the build fails and so does the run.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spans "$build/spans" "$@"
