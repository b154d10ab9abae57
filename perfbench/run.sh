#!/usr/bin/env bash
# Builds cceserver and the benchmark program from this checkout, then runs one
# workload of the serving benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. The last line of standard
# output is the JSON result; progress and diagnostics go to standard error.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cceserver" ]; then
	echo "perfbench: run from the root of a relativekeys checkout (no go.mod or cmd/cceserver here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

# Keep the toolchain's caches, temp files and settings inside the checkout,
# and never reach for the network: the module has no external dependencies.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
export GOFLAGS="-mod=mod -buildvcs=false" CGO_ENABLED=0

go build -o "$out/cceserver" ./cmd/cceserver
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cceserver "$out/cceserver" -work "$out/work" "$@"
