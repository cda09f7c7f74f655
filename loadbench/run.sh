#!/usr/bin/env bash
# Builds edfd, edfproxy and the load benchmark from source, then runs the
# benchmark with the given flags. Run it from the repository root:
#
#   bash loadbench/run.sh --workload hit-proxy --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"

# Refuse to run without the program's sources, before any go command runs.
for f in go.mod cmd/edfd cmd/edfproxy loadbench/go.mod; do
	if [ ! -e "$f" ]; then
		echo "run.sh: $f not found; run from the repository root" >&2
		exit 1
	fi
done

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
mkdir -p "$out/bin"

# The go command otherwise starts a detached telemetry process that can
# outlive this script; mode "off" in its config directory stops that.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/edfd" ./cmd/edfd
go build -o "$out/bin/edfproxy" ./cmd/edfproxy
go -C loadbench build -o "$out/bin/loadbench" .

exec "$out/bin/loadbench" -bin "$out/bin" -dir "$out/loadbench" "$@"
