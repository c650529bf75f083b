#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload vc-grid --seed 1 --seconds 30 --trace 0
#
# Run from the repository root.  The binary and the Go build cache live
# under .bench_build/ in that root, so a run reads and writes nothing
# outside the checkout.  A tree without the anoncover module next to
# perfbench/ fails the build, and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep every file the go command writes (cache, temporaries, telemetry
# counters under the config dir) inside the checkout, and never reach
# for a network toolchain or module proxy.
(
	cd "$root/perfbench"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
