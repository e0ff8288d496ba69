#!/usr/bin/env bash
# Builds blperf from source and measures one workload:
#
#   bash cmd/blperf/bench.sh --workload report-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ there: the Go build cache, temporary files, the
# binary, and each run's results.json (plus, with --trace 1, the traced
# pass's trace and CPU profile). The last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# A checkout without its own .git must not pick up an enclosing repository's
# (for the build's VCS stamp or the reported revision).
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/cmd/blperf" && go build -o "$build/blperf" .) >&2

# The run's outputs go to a directory named after its arguments.
out="$build/out/$(printf '%s' "$*" | tr -c 'A-Za-z0-9._-' '_')"
exec "$build/blperf" bench -out "$out" "$@"
