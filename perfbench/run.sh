#!/usr/bin/env bash
# Builds bsmpd and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload run-multi --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, its temporary files and Go's own
# state stay under .bench_build in the checkout. Go telemetry is turned
# off there, because otherwise the go command starts a detached upload
# process that outlives this script.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bsmpd" ]]; then
	echo "run.sh: no bsmp module with cmd/bsmpd in $root; run it from the repository root" >&2
	exit 1
fi
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/bsmpd" ./cmd/bsmpd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bsmpd "$out/bin/bsmpd" "$@"
