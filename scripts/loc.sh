#!/usr/bin/env bash
# First-party Rust line count per area (ROADMAP: "line count is a
# tracked number"): every *.rs under crates/, tests/, examples/ and
# src/ — not vendor/, benchmark/ or target/. EXPERIMENTS.md E21 records
# the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for area in crates/*/ tests examples src; do
  lines=$(find "$area" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l)
  printf '%7d  %s\n' "$lines" "${area%/}"
  total=$((total + lines))
done
printf '%7d  total\n' "$total"
