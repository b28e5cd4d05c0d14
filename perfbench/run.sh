#!/usr/bin/env bash
# Builds the serve benchmark from the source of the checkout it runs in,
# then runs it with the given arguments. Run it from the module root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the costsense module root (go.mod, internal/serve and perfbench/ not all found)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
