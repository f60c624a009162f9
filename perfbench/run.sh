#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# or every workload in turn, one result line each:
#
#   bash perfbench/run.sh --all --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the checkout root):
# the Go build cache, the binary and the trace files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
if [ "${1:-}" = "--all" ]; then
	shift
	for w in evaluate-cold sweep-chained evaluate-hot twin-stream; do
		printf '%s ' "$w"
		"$out/perfbench" -out "$out" --workload "$w" "$@" | tail -n 1
	done
	exit 0
fi
exec "$out/perfbench" -out "$out" "$@"
