#!/usr/bin/env bash
# Builds the binaries the benchmark drives and the benchmark itself from the
# checkout in the current directory, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload scan-s50 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/refcheck" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the root of a repository checkout" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/refcheck ./cmd/refcheckd ./cmd/refgen
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --bin "$build/bin" "$@"
