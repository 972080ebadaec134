#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fleet-kv-zipf --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — the binary, the Go build
# cache and the traced runs' span and profile files — stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -f sanctorum.go || ! -d internal ]]; then
	echo "perfbench: $PWD holds no Sanctorum source tree (go.mod, sanctorum.go, internal/)" >&2
	exit 2
fi
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin # the toolchain's default install location
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/perfbench"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd perfbench && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
