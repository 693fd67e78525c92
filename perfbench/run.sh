#!/usr/bin/env bash
# Builds the benchmark and cmd/reproserve from the source in the current
# checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload fanin|fib|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files go under $CARGO_TARGET_DIR (default .bench_build), so the
# run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/reproserve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/reproserve here)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/reproserve" ./cmd/reproserve)

exec "$out/perfbench" --serve-bin "$out/reproserve" --out "$out" "$@"
