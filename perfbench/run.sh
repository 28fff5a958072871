#!/usr/bin/env bash
# Builds the benchmark, cmd/spaceserver and cmd/tpbench from the source
# tree this script sits in, then runs the benchmark with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#   bash perfbench/run.sh compare parent.jsonl change.jsonl
#
# Everything it writes stays in .bench_build/ at the tree's root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
(cd "$root" && go build -o "$out/bin/spaceserver" ./cmd/spaceserver \
    && go build -o "$out/bin/tpbench" ./cmd/tpbench) >&2

cd "$root"
if [ "${1:-}" = compare ]; then
    exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"
