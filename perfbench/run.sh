#!/usr/bin/env bash
# Builds pipegen, pipeserve and the perfbench program from the checkout
# this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root (Go build cache included), so nothing is written
# outside the checkout. perfbench prints its result as the last line of
# standard output.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home/.config/go/telemetry" "$out/tmp"
# With telemetry on (its default, "local", in a fresh config directory) the go
# command starts a detached sidecar process that outlives the build. Turning
# it off keeps every process this script starts inside the script's lifetime.
printf 'off\n' >"$out/home/.config/go/telemetry/mode"

build_env=(
	HOME="$out/home"
	XDG_CONFIG_HOME="$out/home/.config"
	TMPDIR="$out/tmp"
	GOTMPDIR="$out/tmp"
	GOCACHE="$out/gocache"
	GOPATH="$out/gopath"
	GOTOOLCHAIN=local
	GOPROXY=off
	GOFLAGS=
	GOWORK=off
)
# Output of the build goes to standard error so the benchmark's result stays
# the last line of standard output.
(cd "$root" && env "${build_env[@]}" go build -o "$out/bin/" ./cmd/pipegen ./cmd/pipeserve) 1>&2
(cd "$here" && env "${build_env[@]}" go build -o "$out/bin/perfbench" .) 1>&2

cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
