#!/usr/bin/env bash
# The GridBank benchmark, built offline and run from the repository root.
#   benchmark/run.sh                      every workload, untraced and traced (`run --seed 42`)
#   benchmark/run.sh run --smoke          tiny counts, invariants only
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh compare before.json after.json
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
  set -- run --seed 42
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
