#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build + test suite.
# Run from anywhere; exits non-zero on the first failure.
#
# CHECK_FULL=1 additionally enables every opt-in stage (LOOM, MIRI).
# A per-stage wall-clock summary prints after the final stage.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "${CHECK_FULL:-}" ]]; then
  LOOM="${LOOM:-1}"
  MIRI="${MIRI:-1}"
fi

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=$SECONDS
stage_done() {
  if [[ -n "$CURRENT_STAGE" ]]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECS+=("$((SECONDS - STAGE_START))")
    CURRENT_STAGE=""
  fi
}
stage() {
  stage_done
  CURRENT_STAGE="$1"
  STAGE_START=$SECONDS
  echo "== $1"
}

stage "cargo fmt --check"
cargo fmt --all --check

stage "cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# One way to boot a bank (DESIGN.md §4 "Booting a bank"): only the
# server itself, the one Deployment and the standalone benchmark may
# start a server, so a hand-rolled world cannot grow back. The
# per-area line count is the number EXPERIMENTS.md E21 tracks.
stage "one bootstrap + one client + one journal + one log + one lock + one history + one signature scheme + one seal + one leaf-secret derivation + one chain walker + one benchmark + one retry rule + one lock order + one money accessor + one error reading + one store I/O + one instrument record + one serve loop guards, first-party line count (scripts/loc.sh)"
# Prints every line matching the ERE $1 in the files that follow, up to
# each file's first column-0 `#[cfg(test)]` / `#[cfg(all(test, ...` (its
# product code); fails if there is none.
product_grep() {
  local pattern="$1" file hits found=1
  shift
  for file in "$@"; do
    hits="$(sed -E '/^#\[cfg\((all\()?test/,$d' "$file" | grep -nE "$pattern" || true)"
    if [[ -n "$hits" ]]; then
      sed "s|^|$file:|" <<<"$hits"
      found=0
    fi
  done
  return "$found"
}
if grep -rn --include='*.rs' 'GridBankServer::start' crates tests examples src \
  | grep -v -e '^crates/core/src/server.rs:' -e '^crates/sim/src/deploy.rs:'; then
  echo "bootstrap guard: start servers through gridbank_sim::deploy only" >&2
  exit 1
fi
# One way to call a bank (DESIGN.md §4 "Calling a bank"): the typed
# §5.2 API is written once, over a one-method link, so a hand-copied
# client surface, a second transport trait or a second in-process §6
# implementation cannot grow back.
if [[ "$(grep -rn --include='*.rs' 'fn request_cheque(' crates tests examples | wc -l)" -ne 1 ]]; then
  echo "client guard: the typed client API must be defined exactly once:" >&2
  grep -rn --include='*.rs' 'fn request_cheque(' crates tests examples >&2
  exit 1
fi
if grep -rnE --include='*.rs' 'BankPort|PeerTransport|InterBank|journal_to_bytes' \
  crates tests examples src; then
  echo "client guard: call banks through BankClient over a BankLink only" >&2
  exit 1
fi
# One journal and one way back from it (docs/STORAGE.md §3.2): no
# in-memory journal copy, no second recovery beside Database::open, no
# journal append outside a commit batch can grow back. Tests kill a bank
# by reopening a StoreConfig::scratch store.
if grep -rnE --include='*.rs' \
  'journal_snapshot|from_journal|Database::replay|append_with|append_transaction|append_transfer' \
  crates tests examples src; then
  echo "journal guard: recover through Database::open / GridBank::open_durable only" >&2
  exit 1
fi
# One log (docs/STORAGE.md §1): a commit is one frame in one file, so
# the per-shard segment writers, their lock class and the recovery that
# stitched a batch back together from several files cannot grow back.
if grep -rnE --include='*.rs' \
  'ShardWriter|SEGMENT_WRITER|segment-writer|write_shard|compact_shard|batch_first|torn_batch_entries_dropped' \
  crates tests examples src; then
  echo "log guard: one DiskLog, one frame per commit batch, one compaction pass" >&2
  exit 1
fi
# One ledger lock, one snapshot (DESIGN.md §2, EXPERIMENTS.md E25): the
# account shards, their routing functions, the per-shard snapshot
# directories and the same-rank lock discipline that policed them cannot
# grow back.
if grep -rnE --include='*.rs' \
  'entry_shard|account_shard|cert_shard|key_shard|snapshot_shard|ShardInventory|ascending_index|shard_dir' \
  crates tests examples src; then
  echo "lock guard: one accounts lock, one snapshot directory, one lock per rank" >&2
  exit 1
fi
# One history lock (DESIGN.md §4, EXPERIMENTS.md E27): the TRANSACTION and
# TRANSFER tables and their (account, date) index change together, so the
# two per-table locks cannot grow back and only `impl History` may add a
# row: a push anywhere else in db.rs would leave the index behind.
if grep -rnE --include='*.rs' 'AUDIT_TRANSACTIONS|AUDIT_TRANSFERS' crates tests examples src \
  || awk '/^impl History \{/ { inside = 1 } inside && /^\}/ { inside = 0 }
      !inside && /(transactions|transfers)\.(push|insert|extend|append)\(/ {
        print FILENAME ":" FNR ":" $0; found = 1 }
      END { exit !found }' crates/core/src/db.rs; then
  echo "lock guard: history rows change only through History::push_transaction / push_transfer" >&2
  exit 1
fi
# One signature scheme (DESIGN.md §2, EXPERIMENTS.md E26): Winternitz
# one-time keys under the Merkle tree, one signature codec, a lock-free
# signer. The Lamport module, the leaf key carried inside a signature
# and the mutex shim around the signer cannot grow back.
if grep -rniE --include='*.rs' 'lamport|leaf_pk|parking_lot_free' crates tests examples src; then
  echo "signature guard: one one-time scheme (crates/crypto/src/wots.rs), no carried leaf key" >&2
  exit 1
fi
# One seal (EXPERIMENTS.md E33): the sealed channel is ChaCha20-Poly1305
# (crates/crypto/src/aead.rs), sealed and opened in the frame where it
# lies. The HMAC keystream and HMAC tag it replaced, a keystream returned
# as a buffer of its own, and the two-compression HMAC path that only
# the keystream called cannot grow back.
if grep -nE 'HmacSha256|hmac_sha256\(|fn keystream|tag_short' crates/net/src/channel.rs \
  || grep -rn --include='*.rs' 'tag_short' crates; then
  echo "seal guard: one seal, gridbank_crypto::aead::{seal_in_place, open_in_place}" >&2
  exit 1
fi
# One leaf-secret derivation (EXPERIMENTS.md E34): a one-time key's 67
# chain starts are the ChaCha20 keystream of its leaf key, and the leaf
# key is one HMAC block of the identity's stream. The keystream fill in
# aead.rs is a key-derivation PRG under a key that keys nothing else, not
# a channel keystream, so it does not trip the one-seal guard's intent.
# The HMAC block per chain start and the formatted per-leaf label cannot
# grow back.
if grep -nE 'DeterministicStream|next_digest' crates/crypto/src/wots.rs \
  || grep -nF 'format!("ots-' crates/crypto/src/merkle.rs; then
  echo "leaf-secret guard: chain starts come from aead::keystream_fill under merkle's leaf_key" >&2
  exit 1
fi
# One chain walker (EXPERIMENTS.md E35): every Winternitz chain step is
# taken by `walk_chains`, four chains to one `sha256::one_block_lanes`
# pass. The chain-at-a-time walk survives only under #[cfg(test)], as the
# reference the walker is tested against.
if sed '/#\[cfg(test)\]/q' crates/crypto/src/wots.rs | grep -nE 'sha256_one_block|fn walk\('; then
  echo "chain-walker guard: wots.rs walks chains only through walk_chains" >&2
  exit 1
fi
# One benchmark (EXPERIMENTS.md E29): `benchmark/` measures the payment
# traffic, `gridbank settle` / `gridbank market` time their own runs. The
# second load generator, its JSON report and its recovery drill cannot
# grow back.
if grep -rnE --include='*.rs' 'loadgen|BENCH_payments|run_recovery|RecoveryDrillReport|await_serving' \
  crates tests examples src || [[ -e crates/bench/src/main.rs ]]; then
  echo "benchmark guard: measure through benchmark/ and the CLI drivers only" >&2
  exit 1
fi
# One retry rule (docs/RESILIENCE.md §2, EXPERIMENTS.md E30): the retry
# link's twelve attempts and its reachability count. A backoff schedule
# nothing waits on, or a breaker a virtual clock never holds open,
# cannot grow back.
if grep -rnE --include='*.rs' \
  'RetryPolicy|CircuitBreaker|BackoffSchedule|CircuitOpen|HalfOpen|breaker_state|with_breaker' \
  crates tests examples src; then
  echo "retry guard: one retry rule, gridbank_core::resilient::RetryLink" >&2
  exit 1
fi
# One wall per invariant (docs/STATIC_ANALYSIS.md, EXPERIMENTS.md E31,
# E37): the lock order is declared once, in `sync::rank`, and checked by
# the witness; panic-free library code is clippy's restriction lints;
# every rule of the deleted lexical analyser has an owner that checks
# types or behaviour. The lexical rules, their parsed table, the
# analyser and its allow directives cannot grow back, and db.rs builds
# no plain lock at all.
if grep -rnE --include='*.rs' \
  'LockOrderSpec|LockClass|lock_discipline|Rule::LockOrder|Rule::NoPanic|NO_PANIC_SCOPE' \
  crates tests examples src \
  || awk '/^#\[cfg\((all\()?test/ { exit }
      /(^|[^A-Za-z_])(Mutex|RwLock)::new\(/ { print FILENAME ":" FNR ":" $0; found = 1 }
      END { exit !found }' crates/core/src/db.rs; then
  echo "lock-order guard: rank db.rs locks in sync::rank and wrap them in OrderedMutex/OrderedRwLock" >&2
  exit 1
fi
if grep -rnE --include='*.rs' --include='Cargo.toml' \
  'gridbank[-_]lint|lint:(allow|allow-file)' crates tests examples src Cargo.toml; then
  echo "wall guard: each invariant has one owner (docs/STATIC_ANALYSIS.md), not a lexical analyser" >&2
  exit 1
fi
# One money accessor (docs/STATIC_ANALYSIS.md, EXPERIMENTS.md E37): money
# arithmetic lives in gridbank-rur, whose clippy wall denies bare
# arithmetic everywhere but the fixed-point definition module. Outside
# it, product code never holds the raw integer of a `Credits`, so it
# has nothing to do bare arithmetic on.
if product_grep '\.micro\(\)|\.whole_gd\(\)|MICRO_PER_GD' \
  $(find crates/*/src src -name '*.rs' -not -path 'crates/rur/*' | sort); then
  echo "money guard: use the checked Credits API in gridbank-rur, not the raw integer" >&2
  exit 1
fi
# One error reading (docs/STATIC_ANALYSIS.md, EXPERIMENTS.md E37): error
# frames carry a structured `detail` and `error_from_wire` maps `kind` to
# a typed BankError, so product code never parses human-readable error
# text.
if product_grep \
  '\b(message|msg|to_string\(\))(\.[a-z_]+\(\))*\.(contains|split|splitn|rsplit|strip_prefix|strip_suffix|find|starts_with|ends_with|parse)\b' \
  $(find crates/*/src src -name '*.rs' | sort); then
  echo "error-text guard: match the structured error detail or kind, not its Display text" >&2
  exit 1
fi
# One store I/O (docs/STATIC_ANALYSIS.md, EXPERIMENTS.md E37): core
# touches the file system only in store.rs, whose entry points call
# `sync::may_block`, so the witness sees every blocking call core makes.
if product_grep 'fs::|File::|OpenOptions|sync_all\(|sync_data\(' \
  $(find crates/core/src -name '*.rs' -not -name store.rs | sort); then
  echo "store I/O guard: core does file-system I/O in store.rs only" >&2
  exit 1
fi
# One record per instrument (docs/PROTOCOLS.md §3, EXPERIMENTS.md E32): a
# chain's highest redeemed index lives on its reservation beside the
# digest of what the bank issued, so a second per-chain index map beside
# the reservations cannot grow back. The allocations of a recognised
# redeem are pinned by crates/core/tests/redeem_allocations.rs, which the
# workspace tests below run.
if grep -rnE --include='*.rs' 'payword_redeemed|PayWordLedger' crates tests examples src; then
  echo "instrument guard: a chain's redeemed index lives on its FundsGuarantee reservation" >&2
  exit 1
fi
# One serve loop (docs/PROTOCOLS.md §1, EXPERIMENTS.md E36): a request
# runs to completion on its connection's thread, which opens, decodes,
# dispatches, seals and sends it before reading the next. The worker pool,
# its job queue and inbox lock, the queue-wait stage and the split channel
# halves that let a worker answer from another thread cannot grow back,
# and nothing under crates/ reads the two ServerTuning fields left only
# for benchmark/ to set.
if grep -rnE --include='*.rs' \
  'WorkerPool|ResponseWriter|PipelinedRequest|SecureSender|SecureReceiver|SendHalf|RecvHalf|WORKER_INBOX|stage\.queue_ns' \
  crates tests examples src \
  || grep -rnE --include='*.rs' '\.(workers|queue_depth)\b' crates; then
  echo "serve-loop guard: serve each request on its connection's thread (RpcServer::serve)" >&2
  exit 1
fi
echo "clippy restriction-lint allows in crates/{core,net,rur}/src:"
grep -rnE '(allow|expect)\(.*clippy::(unwrap_used|expect_used|panic|unreachable|todo|unimplemented)\b' \
  crates/core/src crates/net/src crates/rur/src | sed 's/^/  /' || echo "  (none)"
scripts/loc.sh

# The whole workspace, not only the root package's integration tests:
# this is what runs the witness's seeded-inversion and blocking tests,
# the telemetry-name asserts, the durability-order test and every
# crate's unit tests. The root manifest's `default-members` makes the
# bare tier-1 command (`cargo build --release && cargo test -q`) run the
# same set.
stage "release build (root package + every crate, CLI included) + cargo test -q --workspace"
cargo build --release
# The root package's release build does not cover the workspace
# binary the smoke stages below shell out to; build it explicitly.
cargo build --release -p gridbank-cli
cargo test -q --workspace

# Chaos suite (E15): `cargo test` above already ran it at its fixed
# default seeds. Export CHAOS_SEED=<n> to additionally probe one extra
# storm seed.
if [[ -n "${CHAOS_SEED:-}" ]]; then
  stage "chaos suite with CHAOS_SEED=$CHAOS_SEED"
  cargo test -q --test chaos_payments
fi

# Vendored substitutes (vendor/*) are excluded: they mirror upstream
# docs we don't own. Every first-party crate must document cleanly.
stage "rustdoc (no-deps, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p gridbank-suite -p gridbank-bench -p gridbank-broker -p gridbank-cli \
  -p gridbank-core -p gridbank-crypto -p gridbank-gsp -p gridbank-meter \
  -p gridbank-net -p gridbank-obs -p gridbank-rur -p gridbank-sim \
  -p gridbank-trade

# Benchmark smoke (benchmark/README.md): every workload of the one
# benchmark at tiny counts through live servers — digest and funds across
# a kill on `cheque_durable` included. Exits 1 on any failed output check.
stage "benchmark smoke (bash benchmark/run.sh run --smoke)"
bash benchmark/run.sh run --smoke

# Federation smoke (§6): two live branch servers, cross-branch payments
# over RPC, one netting pass. `gridbank settle` exits non-zero itself
# unless every clearing account nets to zero with no stranded credits.
stage "federation smoke (docs/PROTOCOLS.md §5)"
fed_out="$(./target/release/gridbank settle --branches 2 --payments 2)"
echo "$fed_out"
grep -q "clearing accounts net to zero" <<<"$fed_out" || {
  echo "federation smoke: settlement did not net to zero" >&2
  exit 1
}

# Ops smoke (E18 companion): scrape a live branch over the wire with the
# OPS_ADMIN-gated OpsQuery. The unauthorized probe must be refused, the
# health report must classify Healthy, and all five server.stage.*
# histograms must have recorded (docs/OBSERVABILITY.md §4).
stage "ops smoke (docs/OBSERVABILITY.md §4)"
ops_out="$(./target/release/gridbank metrics --remote bank --format jsonl)"
grep -q '"type":"ops-gate"' <<<"$ops_out" || {
  echo "ops smoke: unauthorized OpsQuery was not refused" >&2
  exit 1
}
grep -q '"type":"health".*"state":"Healthy"' <<<"$ops_out" || {
  echo "ops smoke: live branch did not report Healthy" >&2
  exit 1
}
for stage in decode dispatch lock journal reply; do
  grep -Eq "\"name\":\"server\.stage\.${stage}_ns\",\"count\":[1-9]" <<<"$ops_out" || {
    echo "ops smoke: server.stage.${stage}_ns empty or missing" >&2
    exit 1
  }
done

# Market smoke (docs/ECONOMY.md): a trimmed population-scale economy —
# Zipf spot traffic, capacity auctions with duplicate re-sends, barter,
# PayWord streams — through two live branches. `gridbank market` exits
# non-zero itself unless conservation, exactly-once settlement, and the
# zero-stranded-credit invariants all hold.
stage "market smoke (docs/ECONOMY.md)"
market_out="$(./target/release/gridbank market --population 60 --payments 30 --auctions 2)"
echo "$market_out"
grep -q "invariants: conservation, exactly-once settlement, zero stranded credit — OK" \
  <<<"$market_out" || {
  echo "market smoke: economy invariants not confirmed" >&2
  exit 1
}

# Examples smoke: each program under examples/ runs to its end in
# release and prints its closing line. quickstart and payment_strategies
# issue and redeem cheques, so a cheque's one-commit settlement runs here
# too; multi_branch's last line is its federation conservation check.
stage "examples smoke (examples/*.rs)"
cargo build --release --examples
declare -A closing_line=(
  [quickstart]="Done: consumer, provider and bank agree, with a signed audit trail."
  [payment_strategies]="at the price of a longer makespan — the classic Nimrod-G result."
  [cooperative_barter]="at equilibrium, exactly the property §4.1 asks for."
  [competitive_market]='  hpc-lab buys 2 units from gsp-01 at G$7.000000'
  [multi_branch]='federation conservation check: total funds = G$300.000000'
)
for src in examples/*.rs; do
  example="$(basename "$src" .rs)"
  want="${closing_line[$example]:-}"
  [[ -n "$want" ]] || {
    echo "examples smoke: no closing line listed for $example" >&2
    exit 1
  }
  last="$("./target/release/examples/$example" | tail -n 1)"
  [[ "$last" == "$want" ]] || {
    echo "examples smoke: $example ended with \"$last\", not \"$want\"" >&2
    exit 1
  }
  echo "$example: $last"
done

# Docs link check: every relative markdown link target in README/DESIGN/
# docs must exist on disk — doc rot fails the gate, not review.
stage "docs dead-link check"
if command -v python3 >/dev/null 2>&1; then
python3 - <<'PY'
import os, re, sys
roots = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"] + [
    os.path.join("docs", f) for f in sorted(os.listdir("docs")) if f.endswith(".md")
]
link = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
bad = []
for page in roots:
    base = os.path.dirname(page)
    for target, _frag in link.findall(open(page).read()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not os.path.exists(os.path.normpath(os.path.join(base, target))):
            bad.append(f"{page}: broken link -> {target}")
for b in bad:
    print(b, file=sys.stderr)
if bad:
    sys.exit(1)
print(f"docs dead-link check OK ({len(roots)} pages)")
PY
else
  echo "docs dead-link check: python3 unavailable — skipping"
fi

# Opt-in concurrency stages (docs/STATIC_ANALYSIS.md). LOOM=1 rebuilds
# core with the yield-injecting sync facade and runs the models listed
# there (idempotency dedup, snapshots racing commits,
# transfer-vs-compaction, creation/rename racing a credit).
# LOOM_ITERS / LOOM_SEED tune the exploration (defaults 128 / fixed).
if [[ -n "${LOOM:-}" ]]; then
  stage "loom models (RUSTFLAGS=--cfg loom)"
  RUSTFLAGS="--cfg loom" cargo test -q -p gridbank-core loom_
fi

# MIRI=1 runs the codec + netting-engine unit tests under Miri when the
# component exists; the pinned toolchain may not ship it, so a missing
# cargo-miri is a skip, not a failure.
if [[ -n "${MIRI:-}" ]]; then
  if cargo miri --version >/dev/null 2>&1; then
    stage "miri (codec + netting engine)"
    cargo miri test -q -p gridbank-rur codec
    cargo miri test -q -p gridbank-core branch::
  else
    stage "miri: cargo-miri not installed for this toolchain — skipping"
    echo "       " \
         "(rustup component add miri on a nightly to enable)"
  fi
fi

stage_done
echo "== stage timing"
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %5ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
done
printf '  %5ss  total\n' "$SECONDS"

echo "== all checks passed"
