#!/usr/bin/env bash
# Builds crowdperf from this checkout's source and runs it with the given
# flags. Run it from the repository root, e.g.
#
#   bash cmd/crowdperf/run.sh --workload ingest_http --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the write-ahead logs. The
# toolchain is used offline and as installed; a checkout without the rest
# of the repository fails to build and exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd cmd/crowdperf && go build -o "$out/crowdperf" .)
exec "$out/crowdperf" "$@"
