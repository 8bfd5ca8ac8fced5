//! E15 — chaos soak: Figure-1 payments through a faulty network.
//!
//! The consumer → bank → GSP flow runs over the authenticated channel
//! while a seeded [`FaultInjector`] drops, duplicates, reorders, and
//! resets frames at ≥20% per direction. Clients retry through
//! `ResilientBankClient` with stable idempotency keys; the bank's dedup
//! cache makes the retries exactly-once. After every storm:
//!
//! * **no double-apply** — each logical payment uses a unique
//!   `(drawer, recipient, amount)` triple; no triple may repeat;
//! * **no lost acks** — every operation the client got a confirmation
//!   for is present in the transfer table;
//! * **no stranded locks** — expiry + sweep releases every lock;
//! * **conservation** — Σ(available+locked) is unchanged.
//!
//! Seeds are fixed for reproducibility; set `CHAOS_SEED=<n>` to probe a
//! different storm (CI keeps the defaults).

// Test fixtures build inputs with plain arithmetic; the workspace
// `clippy::arithmetic_side_effects` wall targets production money paths
// (see docs/STATIC_ANALYSIS.md §lint wall).
#![allow(clippy::arithmetic_side_effects)]

use gridbank_suite::rur::Credits;
use gridbank_suite::sim::chaos::{run_chaos, ChaosConfig};

/// ≥20% uniform fault rate, per direction, per fault kind.
const FAULT_RATE_PM: u32 = 220;

fn seeds() -> Vec<u64> {
    if let Ok(s) = std::env::var("CHAOS_SEED") {
        let seed = s.parse().expect("CHAOS_SEED must be a u64");
        return vec![seed];
    }
    vec![11, 42, 1977]
}

#[test]
fn chaos_storm_preserves_exactly_once_and_conservation() {
    for seed in seeds() {
        let cfg = ChaosConfig { seed, fault_rate_pm: FAULT_RATE_PM, ..ChaosConfig::default() };
        let report = run_chaos(&cfg);

        // The storm must actually have injected faults — otherwise this
        // test is vacuously green.
        assert!(
            report.faults.total() > 0,
            "seed {seed}: no faults injected; the storm never happened"
        );

        assert_eq!(
            report.double_applied, 0,
            "seed {seed}: double-applied transfers detected: {report:?}"
        );
        assert_eq!(
            report.lost_writes, 0,
            "seed {seed}: acked operations missing from the ledger: {report:?}"
        );
        assert_eq!(
            report.stranded_locked,
            Credits::ZERO,
            "seed {seed}: funds left locked after expiry + sweep: {report:?}"
        );
        assert!(
            report.conserved(),
            "seed {seed}: Σ(available+locked) changed: {} -> {} ({report:?})",
            report.initial_total,
            report.final_total
        );
    }
}

/// The dedup cache is what makes retries exactly-once: with it disabled
/// (`idem_capacity: 0`) the same storm seeds must produce at least one
/// double-applied payment. If this test ever fails, the chaos suite has
/// lost its teeth — the assertions above would pass vacuously.
#[test]
fn disabling_dedup_makes_the_storm_double_apply() {
    let mut double_applied = 0;
    for seed in seeds() {
        let cfg = ChaosConfig {
            seed,
            fault_rate_pm: FAULT_RATE_PM,
            idem_capacity: 0,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg);
        double_applied += report.double_applied;
    }
    assert!(
        double_applied > 0,
        "no double-applies with dedup disabled: the chaos suite cannot \
         distinguish exactly-once from at-least-once"
    );
}
