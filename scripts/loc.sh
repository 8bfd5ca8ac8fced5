#!/usr/bin/env bash
# First-party Rust line count per area (ROADMAP: "line count is a
# tracked number"): every *.rs under crates/, tests/, examples/ and
# src/ — not vendor/, benchmark/ or target/. Beside each total, how much
# of it is test code: every line from a file's first `#[cfg(test)]` /
# `#[cfg(all(test` to its end, and every file under a `tests/` or
# `benches/` directory — so new tests do not read as new product code.
# The grand total is the number EXPERIMENTS.md E21–E23 tracked.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
total_test=0
printf '%7s %7s  %s\n' lines test area
for area in crates/*/ tests examples src; do
  read -r lines test < <(
    find "$area" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 awk '
      FNR == 1 { in_test = FILENAME ~ /(^|\/)(tests|benches)\// }
      /^[[:space:]]*#\[cfg\((all\()?test/ { in_test = 1 }
      { lines++; test += in_test }
      END { print lines + 0, test + 0 }'
  )
  printf '%7d %7d  %s\n' "$lines" "$test" "${area%/}"
  total=$((total + lines))
  total_test=$((total_test + test))
done
printf '%7d %7d  total (%d product)\n' "$total" "$total_test" "$((total - total_test))"
