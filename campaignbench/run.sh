#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Run it from the
# root of a checkout; every build and run artifact stays under
# .bench_build there.
#
#   bash campaignbench/run.sh --workload t4-cold --seed 1 --seconds 15 --trace 0
set -euo pipefail
dir="$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
(cd "$dir" && go build -o "$build/campaignbench" .)
if [ -e .git ] && commit="$(git rev-parse HEAD 2>/dev/null)"; then
	:
else
	# Not a git checkout: identify the code by a digest of its sources.
	commit="src-sha256:$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export CAMPAIGNBENCH_DIR="$dir" CAMPAIGNBENCH_COMMIT="$commit"
exec "$build/campaignbench" "$@"
