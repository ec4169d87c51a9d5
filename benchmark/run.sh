#!/usr/bin/env bash
# Builds the benchmark and runs it. Without arguments: the whole
# benchmark (`bench run --seed 42`), whose exit code says whether every
# output check passed. With arguments: they go to `bench` (see --help).
set -euo pipefail
cd "$(dirname "$0")"
if [ $# -eq 0 ]; then
    set -- run --seed 42
fi
exec cargo run --release --quiet -- "$@"
