#!/usr/bin/env bash
# Builds sweep, temprivd, temprivgw and the load generator from this
# checkout, then runs one benchmark workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/temprivd || ! -d results || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a tempriv checkout (go.mod, cmd/, results/ and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

# The binaries are built once per source tree and toolchain: the stamp
# hashes every Go source and module file, so later runs of the same
# checkout start at once and no build time reaches a measurement.
stamp=$({
	go env GOVERSION
	find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
		LC_ALL=C sort | xargs sha256sum
} | sha256sum | cut -d' ' -f1)
if [[ "$(cat "$build/bin/stamp" 2>/dev/null)" != "$stamp" ]]; then
	go build -o "$build/bin/" ./cmd/sweep ./cmd/temprivd ./cmd/temprivgw >&2
	(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
	echo "$stamp" >"$build/bin/stamp"
fi

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
