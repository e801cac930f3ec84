#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sor-ckpt --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary, checkpoint stores and trace files all stay under
# the build directory ($CARGO_TARGET_DIR, default .bench_build) inside the
# checkout. Without the module sources next to perfbench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gotmp"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# build directory too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
